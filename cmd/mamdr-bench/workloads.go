package main

import (
	"runtime"
	"time"

	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/synth"
)

// Model and batch shape shared by every workload.
const (
	modelName = "mlp"
	embDim    = 16
	batchSize = 64
)

var hidden = []int{64, 32}

// trainSeed seeds the program's own randomness: parameter
// initialisation, domain order, DR helper sampling, the shard plan. The
// -seed argument generates the inputs (datasets, request streams) and
// nothing else, so the number of mini-batches a fit runs — which depends
// on which helper domains DR draws — is the same for every input seed,
// and run-to-run spread measures the machine, not the draw.
const trainSeed = 12

// sizes pins everything a workload's cost depends on. The values in
// pinned were calibrated once on the seed commit (2 cores) and are never
// derived at run time, so a parent commit and a change do identical
// work. quick is the same shapes shrunk for the tier-1 smoke test.
type sizes struct {
	// bench-head: synth.Amazon13(headSamples, seed), trained headEpochs
	// epochs per fit.
	headSamples, headEpochs int
	// bench-tail: synth.TaobaoOnline(tailDomains, tailSamples, seed) with
	// learned embeddings over tailUsers × tailItems.
	tailDomains, tailSamples, tailUsers, tailItems, tailEpochs int
	// train-ps: epochs per fit, shard count.
	psEpochs, psShards int
	// How often a serving workload sets up in one process; setup_s is the
	// median and only the last set-up is measured on. (Training set-up
	// takes milliseconds: it runs once more after every fit.)
	setupReps int
	// Serving: warm-up requests sent before the window, request-pool
	// size per client, and the request shapes.
	warmup, pool   int
	rankCandidates int
	rankHeadDoms   int
	rankRateRPS    float64
	livePairs      int
	feedbackEvery  int
	publishEvery   time.Duration
	checkEvery     int // every n-th pool entry is compared with core.State.Predict
	// Latency limits behind slo_ok_ratio (ms per epoch or per request).
	sloHeadMS, sloTailMS, sloPSMS, sloPointMS, sloRankMS, sloLiveMS float64
	// AUC floors of a fit on the test and on the train split (checkFit); a
	// fit below either is a failed operation.
	aucFloorTest, aucFloorTrain float64
	// quantTol bounds |int8-served score − float64 reference|.
	quantTol float64
	// layerReps scales the repetition counts of the per-layer timings.
	layerReps int
}

var pinned = sizes{
	headSamples: 10000, headEpochs: 1,
	tailDomains: 200, tailSamples: 4000, tailUsers: 4000, tailItems: 2000, tailEpochs: 1,
	psEpochs: 3, psShards: 2,
	setupReps: 2,
	warmup:    400, pool: 2048,
	rankCandidates: 256, rankHeadDoms: 8, rankRateRPS: 400,
	livePairs: 16, feedbackEvery: 4, publishEvery: 2 * time.Second,
	checkEvery: 100,
	sloHeadMS:  2000, sloTailMS: 6000, sloPSMS: 2000,
	sloPointMS: 20, sloRankMS: 50, sloLiveMS: 100,
	aucFloorTest: 0.40, aucFloorTrain: 0.55,
	quantTol:  0.02,
	layerReps: 30,
}

var quick = sizes{
	headSamples: 800, headEpochs: 1,
	tailDomains: 12, tailSamples: 500, tailUsers: 200, tailItems: 100, tailEpochs: 1,
	psEpochs: 1, psShards: 2,
	setupReps: 1,
	warmup:    8, pool: 64,
	rankCandidates: 32, rankHeadDoms: 4, rankRateRPS: 100,
	livePairs: 4, feedbackEvery: 4, publishEvery: 80 * time.Millisecond,
	checkEvery: 4,
	sloHeadMS:  60000, sloTailMS: 60000, sloPSMS: 60000,
	sloPointMS: 5000, sloRankMS: 5000, sloLiveMS: 5000,
	aucFloorTest: 0.3, aucFloorTrain: 0.3,
	quantTol:  0.05,
	layerReps: 2,
}

// clients is C of the issue: load comes from min(nproc, 4) clients,
// connections or workers.
func clients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func headConfig(sz sizes, seed int64) synth.Config {
	return synth.Amazon13(sz.headSamples, seed)
}

// tailConfig is the long-tail dataset: a Zipf domain-size law whose
// tail sits at synth's 24-sample floor, so most domains train one tiny
// batch. Learned embeddings replace the preset's fixed features, which
// have no tables: |θ| would be a few thousand floats and nothing would
// be restore- or row-bound.
func tailConfig(sz sizes, seed int64) synth.Config {
	cfg := synth.TaobaoOnline(sz.tailDomains, sz.tailSamples, seed)
	cfg.FixedFeatures = false
	cfg.NumUsers = sz.tailUsers
	cfg.NumItems = sz.tailItems
	return cfg
}

func modelFactory(ds *data.Dataset) func() models.Model {
	return func() models.Model {
		return models.MustNew(modelName, models.Config{Dataset: ds, EmbDim: embDim, Hidden: hidden, Seed: trainSeed})
	}
}

// headFit trains with the framework defaults (Adam inside, SGD
// outside); tailFit uses the paper's industrial inner optimizer (SGD,
// lr 0.1), under which an inner step costs one pass over θ and the
// per-helper full-vector algebra is what the epoch spends its time on.
func headFit(sz sizes) framework.Config {
	return framework.Config{Epochs: sz.headEpochs, BatchSize: batchSize, Seed: trainSeed}.WithDefaults()
}

func tailFit(sz sizes) framework.Config {
	return framework.Config{Epochs: sz.tailEpochs, BatchSize: batchSize, Seed: trainSeed, InnerOpt: "sgd", LR: 0.1}.WithDefaults()
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"train-head", func(e *env) (*outcome, error) { return runTrain(e, trainHead(e.sz)) }},
	{"train-tail", func(e *env) (*outcome, error) { return runTrain(e, trainTail(e.sz)) }},
	{"train-ps", func(e *env) (*outcome, error) { return runTrain(e, trainPS(e.sz)) }},
	{"serve-point", func(e *env) (*outcome, error) { return runServe(e, servePoint(e.sz)) }},
	{"serve-rank", func(e *env) (*outcome, error) { return runServe(e, serveRank(e.sz)) }},
	{"serve-live", func(e *env) (*outcome, error) { return runServe(e, serveLive(e.sz)) }},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
