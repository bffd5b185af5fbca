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
//	mamdr-train -ps-serve  127.0.0.1:7001,127.0.0.1:7002  # host two empty shard slots and block
//	mamdr-train -ps-workers 4 -ps-addrs 127.0.0.1:7001,127.0.0.1:7002   # install this run's shards on them and train
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
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

	runConfig := trainingFlags()
	harness := obsv.HarnessFlags(flag.CommandLine, obsv.Uses{Trace: true, Events: true})
	var (
		fw = flag.String("framework", "mamdr", "learning framework: "+strings.Join(mamdr.FrameworkNames(), ", "))

		kernelThreads = flag.Int("kernel-threads", 0, "compute parallelism cap: goroutines per math kernel, or DR workers during a DR phase (0 = GOMAXPROCS; results are bit-identical at any setting)")

		metricsAddr   = flag.String("metrics-addr", "", "serve Prometheus /metrics on this address during training (e.g. :9090)")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep /metrics up this long after training (for a final scrape)")

		psWorkers = flag.Int("ps-workers", 0, "run distributed PS-Worker training with this many workers (0 = single process; -framework mamdr or dn)")
		psShards  = flag.Int("ps-shards", 1, "partition the parameter server across this many in-process cluster shards for -ps-workers (with -ps-sync-push training is bit-identical across shard counts)")
		psFaults  = flag.String("ps-faults", "", `fault-injection schedule for -ps-workers chaos runs, e.g. "PushDelta:err@p0.05; PullRows:delay=10ms@*" (seeded per worker and shard from -seed)`)
		psSync    = flag.Bool("ps-sync-push", false, "apply worker deltas serially per epoch for bit-reproducible distributed runs")

		psAddrs  = flag.String("ps-addrs", "", "comma-separated addresses of -ps-serve host slots to install this run's shards on and train against (replicas of one shard joined with '|')")
		psServe  = flag.String("ps-serve", "", "host an empty parameter-server shard slot on each of these comma-separated addresses and block; a -ps-addrs trainer installs its run on them (reads only -checkpoint-dir, -metrics-addr, -metrics-linger, -kernel-threads and the trace flags)")
		replicas = flag.Int("shard-replicas", 1, "replicas per cluster shard: writes broadcast to all, reads fail over past dead ones")

		savePath   = flag.String("save", "", "save the trained state with a quality baseline profiled on the validation split and the dataset and model spec it was trained on (all mamdr-serve -checkpoint needs; -framework dn, dr or mamdr)")
		flipLabels = flag.Bool("flip-labels", false, "invert every interaction label before training — produces a deliberately quality-regressed model for rollout/rollback drills")
	)
	flag.Parse()
	if err := hostFlagsOnly(flag.CommandLine); err != nil {
		log.Fatal(err)
	}
	cfg := runConfig()
	kernels.SetThreads(*kernelThreads)
	psUseDR, err := checkFlags(cfg, *fw, *savePath != "", psFlags{*psWorkers, *psShards, *replicas})
	if err != nil {
		log.Fatal(err)
	}

	// Tracing: the tracer is built whenever -trace/-flight-dump asks for
	// it, or when /metrics is up (so /debug/trace capture-on-demand
	// works even without a trace file); the flight recorder dumps the
	// recent span history when an anomaly (NaN loss, loss spike, RPC
	// error) fires.
	h, err := harness(*metricsAddr != "")
	if err != nil {
		log.Fatal(err)
	}

	// Observability: a private registry exposed over HTTP, optional and
	// free when off. The /metrics/snapshot endpoint serves the versioned
	// JSON snapshot that mamdr-obs federates across the fleet.
	role := "trainer"
	if *psServe != "" {
		role = "ps"
	}
	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.New()
		telemetry.RegisterGoRuntime(reg)
		obsv.RegisterBuildInfo(reg, role)
		mux := opsMux(role, *metricsAddr, reg, h.Tracer)
		go func() {
			log.Printf("serving /metrics on %s", *metricsAddr)
			srv := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			if err := srv.ListenAndServe(); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	// Host mode: empty shard slots, filled by each -ps-addrs trainer.
	if *psServe != "" {
		serveHost(*psServe, cfg.CheckpointDir, h.Tracer, reg)
		return
	}

	ds, err := mamdr.SpecDataset(&cfg.Spec)
	if err != nil {
		log.Fatal(err)
	}
	opts := ps.Options{
		Workers: *psWorkers, Shards: *psShards, CacheEnabled: true,
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, InnerLR: cfg.LR, OuterLR: cfg.OuterLR,
		UseDR: psUseDR, SampleK: cfg.SampleK, DRLR: cfg.DRLR, Seed: cfg.Seed,
		SyncPush: *psSync, HeartbeatTimeout: 30 * time.Second,
	}
	if *psWorkers > 0 {
		// A PS fit records its own hyperparameters: ps.Options' defaults.
		cfg.Spec = opts.Config(cfg.Spec).RunSpec(*fw)
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
	fmt.Printf("dataset %s: %d domains, %d samples\n", ds.Name, ds.NumDomains(), ds.TotalSamples())
	cfg.Telemetry, cfg.Tracer = framework.WireTrainMetrics(reg, ds, h.Events, h.Tracer), h.Tracer

	start := time.Now()
	var (
		valAUC, testAUC []float64
		pred            framework.Predictor
	)
	if *psWorkers > 0 {
		err = framework.CatchResume(func() {
			valAUC, testAUC, pred = trainDistributed(ds, cfg, opts, *replicas, *psFaults, *psAddrs, reg)
		})
	} else {
		fmt.Printf("training %s with %s for %d epochs...\n", cfg.Spec.Model, *fw, cfg.Epochs)
		var res *mamdr.Result
		if res, err = mamdr.Train(ds, *fw, cfg); err == nil {
			valAUC, testAUC, pred = res.ValAUC, res.TestAUC, res.Predictor
		}
	}
	if err != nil {
		log.Fatal(err)
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
		st := pred.(*core.State) // checkFlags refused every other framework
		if err := st.SaveWithBaseline(*savePath, framework.QualityBaseline(st, ds, data.Val)); err != nil {
			log.Fatal(err)
		}
		// Surface the envelope identity the serving fleet will key the
		// publication to — the version/CRC pair /admin/publish verifies.
		if env, err := core.EnvelopeInfo(*savePath); err != nil {
			log.Fatalf("-save: reading back envelope: %v", err)
		} else {
			log.Printf("saved state + quality baseline to %s (envelope v%d, crc %08x, %d payload bytes), trained on dataset sha256 %s",
				*savePath, env.Version, env.CRC, env.PayloadBytes, st.Spec.DataSHA256)
		}
	}

	h.Close()

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

// opsMux is the -metrics-addr listener: reg's /metrics and
// /metrics/snapshot, /debug/trace, and net/http/pprof under
// /debug/pprof/, so a live fit or a -ps-serve host can be profiled.
func opsMux(role, addr string, reg *telemetry.Registry, tracer *trace.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/metrics/snapshot", telemetry.SnapshotHandler(role, addr, reg))
	mux.Handle("/debug/trace", trace.CaptureHandler(tracer))
	obsv.MountPprof(mux)
	return mux
}

// trainingFlags defines the flags that say what a run trains on and how,
// and returns the one function that maps them onto its framework.Config,
// whose Spec every checkpoint records (a -data file by absolute path).
func trainingFlags() func() framework.Config {
	var (
		preset   = flag.String("preset", "taobao-10", "benchmark preset (ignored when -data is set)")
		dataPath = flag.String("data", "", "path to a dataset JSON written by datagen (-save records it as an absolute path, which mamdr-serve reloads)")
		samples  = flag.Int("samples", 10000, "dataset scale when generating a preset")
		model    = flag.String("model", "mlp", "model structure: "+strings.Join(mamdr.ModelNames(), ", "))
		epochs   = flag.Int("epochs", 15, "training epochs")
		batch    = flag.Int("batch", 64, "mini-batch size")
		innerLR  = flag.Float64("lr", 0, "inner-loop learning rate α (0 = framework default)")
		outerLR  = flag.Float64("outer-lr", 0, "DN outer-loop learning rate β (0 = default)")
		drLR     = flag.Float64("dr-lr", 0, "DR learning rate γ (0 = default)")
		sampleK  = flag.Int("k", 0, "DR helper-domain sample count (0 = default)")
		embDim   = flag.Int("emb", 8, "embedding dimension")
		seed     = flag.Int64("seed", 1, "random seed")

		checkpointDir   = flag.String("checkpoint-dir", "", "write crash-safe epoch-boundary checkpoints into this directory")
		checkpointEvery = flag.Int("checkpoint-every", 1, "checkpoint cadence in epochs (with -checkpoint-dir)")
		resume          = flag.Bool("resume", false, "resume from the last checkpoint in -checkpoint-dir (bit-identical to an uninterrupted run under the same seed; refused when the checkpoint was trained on another dataset or model)")
	)
	return func() framework.Config {
		spec := framework.Spec{Preset: *preset, Samples: *samples, Seed: *seed, Model: *model, EmbDim: *embDim}
		if *dataPath != "" {
			abs, err := filepath.Abs(*dataPath)
			if err != nil {
				log.Fatal(err)
			}
			spec.Preset, spec.Samples, spec.DataPath = "", 0, abs
		}
		return framework.Config{
			Spec: spec, Epochs: *epochs, BatchSize: *batch, Seed: *seed,
			LR: *innerLR, OuterLR: *outerLR, DRLR: *drLR, SampleK: *sampleK,
			CheckpointDir: *checkpointDir, CheckpointEvery: *checkpointEvery, Resume: *resume,
		}
	}
}

// psFlags are the -ps-workers, -ps-shards and -shard-replicas counts.
type psFlags struct{ workers, shards, replicas int }

// checkFlags refuses, before any data is built, flags that cannot work
// together or name no run: -resume without -checkpoint-dir, or a
// -checkpoint-every below 1 with it; -save of a fit that is no
// *core.State (a core.MAMDR framework); a negative -ps-workers, a
// -ps-shards or -shard-replicas below 1 (the cluster would quietly run
// one); a -ps-workers fit of anything but mamdr (DN then DR) or dn (DN
// alone), the PS trainer's only two, and whose DR it reports.
func checkFlags(cfg framework.Config, fw string, save bool, pf psFlags) (useDR bool, err error) {
	switch {
	case pf.workers < 0:
		return false, fmt.Errorf("-ps-workers %d: want 0 (single process) or a worker count", pf.workers)
	case pf.shards < 1:
		return false, fmt.Errorf("-ps-shards %d: want at least 1 shard", pf.shards)
	case pf.replicas < 1:
		return false, fmt.Errorf("-shard-replicas %d: want at least 1 replica per shard", pf.replicas)
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return false, errors.New("-resume needs -checkpoint-dir: there is no checkpoint to resume from")
	}
	if cfg.CheckpointDir != "" && cfg.CheckpointEvery < 1 {
		return false, fmt.Errorf("-checkpoint-every %d: a -checkpoint-dir run checkpoints every N ≥ 1 epochs", cfg.CheckpointEvery)
	}
	if f, _ := framework.New(fw); save { // an unknown name builds nil, no *core.MAMDR
		if _, ok := f.(*core.MAMDR); !ok {
			return false, fmt.Errorf("-save: -framework %q fits no state that mamdr-serve can load", fw)
		}
	}
	if pf.workers == 0 {
		return false, nil
	}
	switch fw {
	case "mamdr":
		return true, nil
	case "dn":
		return false, nil
	}
	return false, fmt.Errorf("-framework %q: -ps-workers trains mamdr or dn", fw)
}

// hostFlags are the flags a -ps-serve host reads. Every other flag
// names a run or a fit, which the trainer installs on the host.
var hostFlags = map[string]bool{"ps-serve": true, "checkpoint-dir": true, "metrics-addr": true, "metrics-linger": true,
	"kernel-threads": true, "trace": true, "trace-sample": true, "flight-dump": true, "events": true}

// hostFlagsOnly refuses a -ps-serve host any flag it would not read.
func hostFlagsOnly(fs *flag.FlagSet) error {
	var (
		host  bool
		named []string
	)
	fs.Visit(func(f *flag.Flag) {
		host = host || f.Name == "ps-serve"
		if !hostFlags[f.Name] {
			named = append(named, "-"+f.Name)
		}
	})
	if host && named != nil {
		return fmt.Errorf("-ps-serve: %s: a host takes its run from the trainer that installs it (-ps-addrs)", strings.Join(named, " "))
	}
	return nil
}

// serveHost hosts an empty shard slot on every -ps-serve address and
// blocks; each -ps-addrs trainer installs its run on them. Every slot
// shares reg, so with -metrics-addr the process is one scrape target,
// role ps, for all the shards it hosts.
func serveHost(addrSpec, checkpointDir string, tracer *trace.Tracer, reg *telemetry.Registry) {
	so := cluster.ShardOptions{Tracer: tracer, Metrics: ps.NewMetrics(reg)}
	if checkpointDir != "" {
		so.CheckpointPath = filepath.Join(checkpointDir, "ps.ckpt")
	}
	slots, _, err := cluster.Host(cluster.ParseAddrs(addrSpec), so)
	if err == nil && len(slots) == 0 {
		err = errors.New("no addresses given")
	}
	if err != nil {
		log.Fatalf("-ps-serve: %v", err)
	}
	log.Printf("shard slots on %v", slots)
	select {} // serve until killed
}

// trainDistributed runs the PS-Worker trainer (the paper's industrial
// deployment shape) on cfg.Spec with full telemetry: PS traffic, cache
// hit ratio, row staleness, cfg.Telemetry from every worker, and
// cfg.Tracer's traces. The flags place its cluster.Deploy: in-process
// shards (-ps-shards, one by default, each with -shard-replicas
// replicas), the host slots at addrs (-ps-addrs), which it fills with
// this run's shards, outer optimizer and spec, or under faults
// (-ps-faults) in-process shards lifted onto loopback, where every
// worker's per-shard clients carry a seeded fault injector. The plan is
// a pure function of (layout, shards, seed), so with -ps-sync-push the
// run is bit-identical across shard counts and placements. The state it
// returns carries cfg.Spec.
func trainDistributed(ds *mamdr.Dataset, cfg framework.Config, opts ps.Options, replicas int, faults, addrs string, reg *telemetry.Registry) (val, test []float64, st *core.State) {
	opts.Metrics, opts.Telemetry, opts.Tracer = ps.NewMetrics(reg), cfg.Telemetry, cfg.Tracer
	checkpoint := "" // the cluster's base checkpoint path
	if cfg.CheckpointDir != "" {
		checkpoint = filepath.Join(cfg.CheckpointDir, "ps.ckpt")
		opts.CheckpointEvery, opts.Resume = cfg.CheckpointEvery, cfg.Resume
	}
	serving, err := mamdr.SpecModel(ds, cfg.Spec)
	if err != nil {
		log.Fatal(err)
	}
	replica := func() models.Model { m, _ := mamdr.SpecModel(ds, cfg.Spec); return m } // serving's build checked the spec
	at := cluster.Placement{Addrs: cluster.ParseAddrs(addrs), Loopback: faults != ""}
	if at.Addrs != nil {
		opts.Shards = len(at.Addrs)
	}
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), models.EmbeddingTablesOf(serving)), opts.Shards, opts.Seed)
	log.Printf("cluster: %s", plan.String())
	fmt.Printf("training %s with distributed %s (%d workers, %d shards) for %d epochs...\n",
		cfg.Spec.Model, cfg.Spec.Framework, opts.Workers, plan.NumShards, cfg.Epochs)
	if at.Addrs == nil && opts.Resume {
		if err := refuseLegacyCheckpoint(checkpoint, plan.NumShards); err != nil {
			log.Fatal(err)
		}
	}

	// Every dialled client gets a seeded backoff; under -ps-faults each
	// worker's clients (not the base router's) also get an injector.
	var injectors []*faultinject.Injector
	at.Client = func(worker, sh, rep int, cl *ps.Client) {
		seed := opts.Seed + int64(worker*100+sh*10+rep)
		cl.SetBackoff(ps.Backoff{Seed: seed})
		cl.SetMetrics(opts.Metrics)
		cl.SetTracer(opts.Tracer)
		if faults != "" && worker >= 0 {
			inj := faultinject.MustParse(faults, seed)
			inj.BindMetrics(reg)
			cl.SetInjector(inj)
			injectors = append(injectors, inj)
		}
	}
	dep, err := cluster.Deploy(serving.Parameters(), plan, cluster.ShardOptions{
		Replicas: replicas, OuterOpt: opts.OuterOpt, OuterLR: opts.OuterLR,
		CheckpointPath: checkpoint, Spec: cfg.Spec, Tracer: opts.Tracer, Metrics: opts.Metrics,
	}, cluster.Options{Metrics: cluster.NewMetrics(reg), Tracer: opts.Tracer}, at)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	if at.Addrs == nil && at.Loopback {
		log.Printf("chaos: %d shard servers on loopback, fault schedule %q", plan.NumShards, faults)
	}
	opts.WrapStore = dep.WorkerStore
	res := ps.TrainWithStore(replica, serving, dep.Router, dep, ds, opts)
	res.State.Spec = cfg.Spec
	if faults != "" {
		var injected int64
		for _, inj := range injectors {
			for _, n := range inj.Counts() {
				injected += n
			}
		}
		log.Printf("chaos: %d faults injected", injected)
	}
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
