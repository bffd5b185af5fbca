// Command mamdr-train trains any (model, framework) combination on a
// benchmark dataset and reports per-domain AUC.
//
// Usage:
//
//	mamdr-train -preset taobao-10 -model mlp -framework mamdr -epochs 15
//	mamdr-train -data my_dataset.json -model star -framework alternate
//	mamdr-train -metrics-addr :9090 -events run.jsonl     # observability
//	mamdr-train -ps-workers 4                             # distributed PS-Worker run (a one-shard in-process cluster)
//	mamdr-train -ps-workers 4 -ps-shards 3                # the same over three in-process shards
//	mamdr-train -ps-serve  127.0.0.1:7001,127.0.0.1:7002  # host the shard servers and block
//	mamdr-train -ps-workers 4 -ps-addrs 127.0.0.1:7001,127.0.0.1:7002   # train against them
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"mamdr"
	"mamdr/internal/autograd/kernels"
	"mamdr/internal/cluster"
	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/faultinject"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/obsv"
	"mamdr/internal/ps"
	"mamdr/internal/quality"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mamdr-train: ")

	var (
		preset   = flag.String("preset", "taobao-10", "benchmark preset (ignored when -data is set)")
		dataPath = flag.String("data", "", "path to a dataset JSON written by datagen (-save records it as an absolute path, which mamdr-serve reloads)")
		samples  = flag.Int("samples", 10000, "dataset scale when generating a preset")
		model    = flag.String("model", "mlp", "model structure: "+strings.Join(mamdr.ModelNames(), ", "))
		fw       = flag.String("framework", "mamdr", "learning framework: "+strings.Join(mamdr.FrameworkNames(), ", "))
		epochs   = flag.Int("epochs", 15, "training epochs")
		batch    = flag.Int("batch", 64, "mini-batch size")
		innerLR  = flag.Float64("lr", 0, "inner-loop learning rate α (0 = framework default)")
		outerLR  = flag.Float64("outer-lr", 0, "DN outer-loop learning rate β (0 = default)")
		drLR     = flag.Float64("dr-lr", 0, "DR learning rate γ (0 = default)")
		sampleK  = flag.Int("k", 0, "DR helper-domain sample count (0 = default)")
		embDim   = flag.Int("emb", 8, "embedding dimension")
		seed     = flag.Int64("seed", 1, "random seed")

		kernelThreads = flag.Int("kernel-threads", 0, "compute parallelism cap: goroutines per math kernel, or DR workers during a DR phase (0 = GOMAXPROCS; results are bit-identical at any setting)")

		metricsAddr   = flag.String("metrics-addr", "", "serve Prometheus /metrics on this address during training (e.g. :9090)")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep /metrics up this long after training (for a final scrape)")
		eventsPath    = flag.String("events", "", "append one JSONL event per epoch to this file, rotated at 64 MiB with 3 segments kept")

		profileDir      = flag.String("profile-dir", "", "continuous profiling: keep a ring of CPU+heap pprof profiles in this directory")
		profileInterval = flag.Duration("profile-interval", 30*time.Second, "continuous-profiling capture cadence (with -profile-dir)")

		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (load in Perfetto or chrome://tracing)")
		traceSample = flag.Float64("trace-sample", 1, "fraction of root spans to record (0..1)")
		flightDump  = flag.String("flight-dump", "", "flight-recorder dump path prefix for anomalies (default <trace>.flight when -trace is set)")

		psWorkers = flag.Int("ps-workers", 0, "run distributed PS-Worker training with this many workers (0 = single process; -framework mamdr or dn)")
		psShards  = flag.Int("ps-shards", 1, "partition the parameter server across this many in-process cluster shards for -ps-workers (with -ps-sync-push training is bit-identical across shard counts)")
		psCache   = flag.Bool("ps-cache", true, "enable the PS-Worker embedding cache (§IV-E) for -ps-workers")
		psFaults  = flag.String("ps-faults", "", `fault-injection schedule for -ps-workers chaos runs, e.g. "PushDelta:err@p0.05; PullRows:delay=10ms@*" (seeded per worker and shard from -seed)`)
		psSync    = flag.Bool("ps-sync-push", false, "apply worker deltas serially per epoch for bit-reproducible distributed runs")

		psAddrs  = flag.String("ps-addrs", "", "comma-separated addresses of running shard servers to train against (replicas of one shard joined with '|'); see -ps-serve")
		psServe  = flag.String("ps-serve", "", "host the parameter-server shards on these comma-separated addresses for -model/-preset and block (replica addresses of one shard joined with '|')")
		replicas = flag.Int("shard-replicas", 1, "replicas per cluster shard: writes broadcast to all, reads fail over past dead ones")

		checkpointDir   = flag.String("checkpoint-dir", "", "write crash-safe epoch-boundary checkpoints into this directory")
		checkpointEvery = flag.Int("checkpoint-every", 1, "checkpoint cadence in epochs (with -checkpoint-dir)")
		resume          = flag.Bool("resume", false, "resume from the last checkpoint in -checkpoint-dir (bit-identical to an uninterrupted run under the same seed)")
		savePath        = flag.String("save", "", "save the trained state with a quality baseline profiled on the validation split and the dataset and model spec it was trained on (all mamdr-serve -checkpoint needs; -framework dn, dr or mamdr)")
		flipLabels      = flag.Bool("flip-labels", false, "invert every interaction label before training — produces a deliberately quality-regressed model for rollout/rollback drills")
	)
	flag.Parse()
	kernels.SetThreads(*kernelThreads)
	psUseDR, err := checkFramework(*fw, *savePath != "", *psWorkers, *psCache, *psSync)
	if err != nil {
		log.Fatal(err)
	}

	// The spec is the one description of what this run trains on; -save
	// records it, and mamdr-serve rebuilds the dataset and model from it.
	spec := core.Spec{Preset: *preset, Samples: *samples, Seed: *seed, Model: *model, EmbDim: *embDim}
	if *dataPath != "" {
		abs, err := filepath.Abs(*dataPath)
		if err != nil {
			log.Fatal(err)
		}
		spec.Preset, spec.Samples, spec.DataPath = "", 0, abs
	}
	ds, err := mamdr.SpecDataset(spec)
	if err != nil {
		log.Fatal(err)
	}
	if *flipLabels {
		// The drill model: structurally identical to an honest run, but
		// trained against inverted labels, so its live quality is reliably
		// worse — exactly what a canary gate must catch and roll back.
		for _, dom := range ds.Domains {
			for _, split := range [][]data.Interaction{dom.Train, dom.Val, dom.Test} {
				for i := range split {
					split[i].Label = 1 - split[i].Label
				}
			}
		}
		log.Printf("flip-labels: inverted every label in %s — this model is deliberately poisoned", ds.Name)
	}

	// Tracing: the tracer is built whenever -trace/-flight-dump asks for
	// it, or when /metrics is up (so /debug/trace capture-on-demand
	// works even without a trace file). Training spans flow into the
	// Chrome exporter; the flight recorder dumps the recent span history
	// when an anomaly (NaN loss, loss spike, RPC error) fires.
	var (
		tracer   *trace.Tracer
		exporter *trace.ChromeExporter
	)
	if *tracePath != "" && *flightDump == "" {
		*flightDump = *tracePath + ".flight"
	}
	if *tracePath != "" || *flightDump != "" || *metricsAddr != "" {
		tracer = trace.New(trace.Options{Sample: *traceSample, FlightPath: *flightDump})
		if *tracePath != "" {
			exporter = trace.NewChromeExporter(*tracePath)
			tracer.AddSink(exporter)
		}
	}

	// Observability: a private registry exposed over HTTP plus an
	// append-only JSONL event log. Both are optional and free when off.
	// The /metrics/snapshot endpoint serves the versioned JSON snapshot
	// that mamdr-obs federates across the fleet.
	role := "trainer"
	if *psServe != "" {
		role = "ps"
	}
	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.New()
		telemetry.RegisterGoRuntime(reg)
		obsv.RegisterBuildInfo(reg, role)
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/metrics/snapshot", telemetry.SnapshotHandler(role, *metricsAddr, reg))
		mux.Handle("/debug/trace", trace.CaptureHandler(tracer))
		go func() {
			log.Printf("serving /metrics on %s", *metricsAddr)
			srv := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			if err := srv.ListenAndServe(); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}
	var events *telemetry.EventLog
	if *eventsPath != "" {
		events, err = telemetry.OpenEventLog(*eventsPath)
		if err != nil {
			log.Fatal(err)
		}
		defer events.Close()
	}

	// Continuous profiling: a bounded on-disk ring of CPU+heap pprof
	// captures; a flight-recorder dump copies the ring next to the trace
	// so an anomaly ships with the profiles of the moments before it.
	if *profileDir != "" {
		prof, err := obsv.NewProfiler(obsv.ProfileOptions{Dir: *profileDir, Interval: *profileInterval})
		if err != nil {
			log.Fatal(err)
		}
		go prof.Run(context.Background())
		if tracer != nil {
			tracer.Flight().SetOnDump(func(d trace.Dump) {
				prof.DumpTo(filepath.Join(*profileDir, "flight-"+d.Kind))
			})
		}
		log.Printf("continuous profiling to %s every %s", *profileDir, *profileInterval)
	}

	fmt.Printf("dataset %s: %d domains, %d samples\n", ds.Name, ds.NumDomains(), ds.TotalSamples())

	// Shard-server mode: host this model's slice servers and block. A
	// training process with matching -model/-emb/-seed (so the partition
	// plans agree) then connects with -ps-addrs.
	if *psServe != "" {
		serveCluster(ds, *model, *psServe, *embDim, *seed, *outerLR, *checkpointDir, tracer, reg)
		return
	}

	start := time.Now()
	var (
		valAUC, testAUC []float64
		pred            framework.Predictor
	)
	if *psWorkers > 0 {
		fmt.Printf("training %s with distributed %s (%d workers, %d shards, cache=%v) for %d epochs...\n",
			*model, *fw, *psWorkers, *psShards, *psCache, *epochs)
		opts := ps.Options{
			Workers: *psWorkers, Shards: *psShards, CacheEnabled: *psCache,
			Epochs: *epochs, BatchSize: *batch, InnerLR: *innerLR, OuterLR: *outerLR,
			UseDR: psUseDR, SampleK: *sampleK, DRLR: *drLR, Seed: *seed,
			SyncPush: *psSync, HeartbeatTimeout: 30 * time.Second,
		}
		if *checkpointDir != "" {
			opts.CheckpointPath = filepath.Join(*checkpointDir, "ps.ckpt")
			opts.CheckpointEvery, opts.Resume = *checkpointEvery, *resume
		}
		valAUC, testAUC, pred = trainDistributed(ds, *model, opts, deployOpts{
			embDim: *embDim, replicas: *replicas, faults: *psFaults, addrs: *psAddrs,
		}, reg, events, tracer)
	} else {
		fmt.Printf("training %s with %s for %d epochs...\n", *model, *fw, *epochs)
		res, err := mamdr.Train(mamdr.TrainSpec{
			Dataset:   ds,
			Model:     *model,
			Framework: *fw,
			Epochs:    *epochs,
			BatchSize: *batch,
			InnerLR:   *innerLR,
			OuterLR:   *outerLR,
			DRLR:      *drLR,
			SampleK:   *sampleK,
			EmbDim:    *embDim,
			Seed:      *seed,
			Metrics:   reg,
			Events:    events,
			Tracer:    tracer,

			CheckpointDir:   *checkpointDir,
			CheckpointEvery: *checkpointEvery,
			Resume:          *resume,
		})
		if err != nil {
			log.Fatal(err)
		}
		valAUC, testAUC = res.ValAUC, res.TestAUC
		pred = res.Predictor
	}
	fmt.Printf("trained in %s\n\n", time.Since(start).Round(time.Millisecond))

	// Trainer-side quality emission: run the final model over the
	// validation split through a passive quality tracker (no breach
	// counting — that is a serving-side concern), so offline eval lands
	// on the same mamdr_quality_* series the serving fleet emits and a
	// final /metrics scrape federates both under one schema.
	if reg != nil && pred != nil {
		framework.EmitQuality(quality.NewTracker(reg, quality.Options{}), pred, ds, data.Val)
	}

	// -save freezes the trained state plus its validation-time quality
	// profile into one envelope; mamdr-serve -checkpoint loads both and
	// detects drift against the profile.
	if *savePath != "" {
		st := pred.(*core.State) // checkFramework refused every other framework
		st.Spec = spec
		if err := st.SaveWithBaseline(*savePath, framework.QualityBaseline(st, ds, data.Val)); err != nil {
			log.Fatal(err)
		}
		// Surface the envelope identity the serving fleet will key the
		// publication to — the version/CRC pair /admin/publish verifies.
		if env, err := core.EnvelopeInfo(*savePath); err != nil {
			log.Fatalf("-save: reading back envelope: %v", err)
		} else {
			log.Printf("saved state + quality baseline to %s (envelope v%d, crc %08x, %d payload bytes)",
				*savePath, env.Version, env.CRC, env.PayloadBytes)
		}
	}

	if exporter != nil {
		if err := exporter.Close(); err != nil {
			log.Printf("trace: %v", err)
		} else {
			log.Printf("trace: wrote %s", *tracePath)
		}
	}
	if tracer != nil {
		for _, d := range tracer.Flight().Dumps() {
			log.Printf("trace: flight-recorder dump (%s): %s", d.Kind, d.Path)
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Domain\tSamples\tVal AUC\tTest AUC")
	for d, dom := range ds.Domains {
		fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\n", dom.Name, dom.Samples(), valAUC[d], testAUC[d])
	}
	fmt.Fprintf(w, "MEAN\t\t%.4f\t%.4f\n", metrics.Mean(valAUC), metrics.Mean(testAUC))
	w.Flush()

	if *metricsAddr != "" && *metricsLinger > 0 {
		log.Printf("holding /metrics open for %s", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
}

// checkFramework refuses, before any data is built, a -framework the
// other flags cannot use: -save needs a fit that is a *core.State (a
// core.MAMDR framework), and a -ps-workers fit runs mamdr (DN then DR)
// or dn (DN alone) — the PS trainer implements no other framework. It
// reports whether a -ps-workers fit runs DR. Deferred pushes ride the
// cache protocol, so -ps-sync-push needs -ps-cache.
func checkFramework(fw string, save bool, psWorkers int, cache, syncPush bool) (useDR bool, err error) {
	if f, _ := framework.New(fw); save { // an unknown name builds nil, no *core.MAMDR
		if _, ok := f.(*core.MAMDR); !ok {
			return false, fmt.Errorf("-save: -framework %q fits no state that mamdr-serve can load", fw)
		}
	}
	if psWorkers == 0 {
		return false, nil
	}
	if syncPush && !cache {
		return false, errors.New("-ps-sync-push requires -ps-cache")
	}
	switch fw {
	case "mamdr":
		return true, nil
	case "dn":
		return false, nil
	}
	return false, fmt.Errorf("-framework %q: -ps-workers trains mamdr or dn", fw)
}

// deployOpts is how a distributed run is deployed; what it trains is
// its ps.Options.
type deployOpts struct {
	embDim   int
	replicas int
	faults   string // faultinject schedule applied to every worker's store
	addrs    string // remote shard addresses (cluster mode over sockets)
}

// serveCluster hosts the parameter-server shards of the given model on
// the listed addresses and blocks. The partition plan is derived from
// the model layout and -seed, exactly as the training side derives it,
// so both ends agree on which shard owns which slice (cluster.Dial
// verifies the layouts and refuses a mismatched cluster). Every shard
// shares reg, so with -metrics-addr the process is one scrape target,
// role ps, for all the shards it hosts.
func serveCluster(ds *mamdr.Dataset, model, addrSpec string, embDim int, seed int64, outerLR float64, checkpointDir string, tracer *trace.Tracer, reg *telemetry.Registry) {
	groups := cluster.ParseAddrs(addrSpec)
	if len(groups) == 0 {
		log.Fatal("-ps-serve: no addresses given")
	}
	reps := len(groups[0])
	for _, g := range groups {
		if len(g) != reps {
			log.Fatalf("-ps-serve: every shard needs the same replica count (got %v)", groups)
		}
	}
	serving := models.MustNew(model, models.Config{Dataset: ds, EmbDim: embDim, Seed: seed})
	tables := models.EmbeddingTablesOf(serving)
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), tables), len(groups), seed)
	so := cluster.ShardOptions{Replicas: reps, OuterLR: outerLR, Tracer: tracer, Metrics: ps.NewMetrics(reg)}
	if checkpointDir != "" {
		so.CheckpointPath = filepath.Join(checkpointDir, "ps.ckpt")
	}
	servers := cluster.Shards(serving.Parameters(), plan, so)
	log.Printf("serving %s", plan.String())
	for sh, g := range groups {
		for rep, addr := range g {
			lis, err := net.Listen("tcp", addr)
			if err != nil {
				log.Fatalf("shard %d replica %d: %v", sh, rep, err)
			}
			log.Printf("shard %d replica %d on %s (%d elements)", sh, rep, lis.Addr(), plan.Elements(sh))
			go ps.Serve(servers[sh][rep], lis)
		}
	}
	select {} // serve until killed
}

// trainDistributed runs the PS-Worker trainer (the paper's industrial
// deployment shape) with full telemetry: PS traffic, cache hit ratio,
// row staleness, the per-domain training series from every worker, and
// (with a tracer) one trace per worker epoch plus anomaly watching.
func trainDistributed(ds *mamdr.Dataset, model string, opts ps.Options, o deployOpts, reg *telemetry.Registry, events *telemetry.EventLog, tracer *trace.Tracer) (val, test []float64, st *core.State) {
	replica := func() models.Model {
		return models.MustNew(model, models.Config{Dataset: ds, EmbDim: o.embDim, Seed: opts.Seed})
	}
	opts.Metrics, opts.Telemetry, opts.Tracer = ps.NewMetrics(reg), framework.WireTrainMetrics(reg, ds, events, tracer), tracer
	res := trainCluster(ds, replica, o, opts, reg, tracer)
	c := res.Counters
	log.Printf("PS traffic: %d dense pulls, %d dense pushes, %d row pulls, %d row pushes, %d floats moved",
		c.DensePulls, c.DensePushes, c.RowPulls, c.RowPushes, c.FloatsMoved)
	if res.ResumedFrom > 0 {
		log.Printf("resumed from checkpoint at epoch %d", res.ResumedFrom)
	}
	if res.WorkerDeaths > 0 {
		log.Printf("supervision: %d worker death(s); domains redistributed to survivors", res.WorkerDeaths)
	}
	return framework.EvaluateAUC(res.State, ds, data.Val), framework.EvaluateAUC(res.State, ds, data.Test), res.State
}

// trainCluster runs the distributed trainer against a partitioned
// parameter-server cluster: N shards each owning a deterministic slice
// of the parameter space, fronted by a scatter-gather router. It is the
// only distributed launch; three deployments share it:
//
//   - in-process shards (-ps-shards N, one by default): everything in
//     this binary;
//   - remote shards (-ps-addrs): each worker dials every shard server;
//   - chaos (-ps-faults with either, at any shard count — one included,
//     the CI chaos smoke): in-process shards are lifted onto
//     loopback sockets and every worker's per-shard clients carry a
//     seeded fault injector, so faults hit each shard independently.
//
// The partition plan is a pure function of (layout, shards, seed), so
// with -ps-sync-push the run is bit-identical across shard counts.
func trainCluster(ds *mamdr.Dataset, replica func() models.Model, o deployOpts, opts ps.Options, reg *telemetry.Registry, tracer *trace.Tracer) *ps.Result {
	serving := replica()
	tables := models.EmbeddingTablesOf(serving)

	shards := opts.Shards
	var groups [][]string
	if o.addrs != "" {
		groups = cluster.ParseAddrs(o.addrs)
		shards = len(groups)
	}
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), tables), shards, opts.Seed)
	log.Printf("cluster: %s", plan.String())
	ro := cluster.Options{Metrics: cluster.NewMetrics(reg), Tracer: tracer}
	// The shard servers of the two in-process deployments.
	so := cluster.ShardOptions{
		Replicas: o.replicas, OuterOpt: opts.OuterOpt, OuterLR: opts.OuterLR,
		CheckpointPath: opts.CheckpointPath, Tracer: tracer, Metrics: opts.Metrics,
	}
	if groups == nil && opts.Resume {
		if err := refuseLegacyCheckpoint(opts.CheckpointPath, plan.NumShards); err != nil {
			log.Fatal(err)
		}
	}

	var injectors []*faultinject.Injector
	clientCfg := func(workerID int) func(sh, rep int, cl *ps.Client) {
		return func(sh, rep int, cl *ps.Client) {
			seed := opts.Seed + int64(workerID*100+sh*10+rep)
			cl.SetBackoff(ps.Backoff{Seed: seed})
			cl.SetMetrics(opts.Metrics)
			cl.SetTracer(tracer)
			if o.faults != "" && workerID >= 0 {
				inj := faultinject.MustParse(o.faults, seed)
				inj.BindMetrics(reg)
				cl.SetInjector(inj)
				injectors = append(injectors, inj)
			}
		}
	}

	if groups == nil && o.faults == "" {
		// Fully in-process: workers share one router over the shard
		// servers, no sockets involved.
		local := cluster.NewLocal(serving.Parameters(), plan, so, ro)
		return ps.TrainWithStore(replica, serving, local.Router, local.Router, ds, opts)
	}

	if groups == nil {
		// Chaos over a cluster: lift the in-process shards onto loopback
		// sockets so the injected faults exercise the real per-shard
		// RPC retry/idempotency path.
		servers := cluster.Shards(serving.Parameters(), plan, so)
		addrs, closeAll, err := cluster.ServeTCP(servers)
		if err != nil {
			log.Fatal(err)
		}
		defer closeAll()
		groups = addrs
		log.Printf("chaos: %d shard servers on loopback, fault schedule %q", shards, o.faults)
	}

	// The base router (no injector) serves snapshots and checkpoints;
	// each worker dials its own per-shard clients so faults and retries
	// are independent per (worker, shard). The logical traffic counters
	// therefore live on the workers' routers, not base — sum them all
	// so the reported numbers match an in-process run's.
	base, err := cluster.Dial(plan, groups, clientCfg(-1), ro)
	if err != nil {
		log.Fatal(err)
	}
	var mu sync.Mutex
	routers := []*cluster.Router{base}
	opts.WrapStore = func(workerID int, _ ps.Store) ps.Store {
		r, err := cluster.Dial(plan, groups, clientCfg(workerID), cluster.Options{Metrics: ro.Metrics, Tracer: tracer})
		if err != nil {
			log.Fatal(err)
		}
		mu.Lock()
		routers = append(routers, r)
		mu.Unlock()
		return r
	}
	res := ps.TrainWithStore(replica, serving, base, counterFunc(func() ps.Counters {
		mu.Lock()
		defer mu.Unlock()
		var sum ps.Counters
		for _, r := range routers {
			c := r.Counters()
			sum.DensePulls += c.DensePulls
			sum.DensePushes += c.DensePushes
			sum.RowPulls += c.RowPulls
			sum.RowPushes += c.RowPushes
			sum.FloatsMoved += c.FloatsMoved
		}
		return sum
	}), ds, opts)
	if o.faults != "" {
		var injected int64
		for _, inj := range injectors {
			for _, n := range inj.Counts() {
				injected += n
			}
		}
		log.Printf("chaos: %d faults injected", injected)
	}
	return res
}

// refuseLegacyCheckpoint keeps -resume from silently starting over on a
// -checkpoint-dir written before every launch went through the cluster:
// that trainer's single server saved to base itself, which no shard
// server of a cluster reads.
func refuseLegacyCheckpoint(base string, shards int) error {
	if _, err := os.Stat(base); err != nil {
		return nil
	}
	for sh := 0; sh < shards; sh++ {
		if _, err := os.Stat(ps.ShardCheckpointPath(base, sh, shards)); err == nil {
			return nil
		}
	}
	return fmt.Errorf("-resume: %s is a single-server checkpoint and %s does not exist: this trainer resumes from per-shard files only (retrain, or drop -resume to start over)",
		base, ps.ShardCheckpointPath(base, 0, shards))
}

// counterFunc adapts a closure to the Counters source TrainWithStore
// reads the final traffic tallies from.
type counterFunc func() ps.Counters

func (f counterFunc) Counters() ps.Counters { return f() }
