// Command mamdr-serve trains (or loads) a MAMDR state and serves click
// predictions over HTTP — the serving side of the paper's MDR platform.
//
// Usage:
//
//	mamdr-serve -preset taobao-10 -epochs 10 -addr :8080
//	curl -XPOST localhost:8080/predict -d '{"domain":0,"users":[1,2],"items":[3,4]}'
//	curl -XPOST localhost:8080/domains          # register a new domain
//	curl localhost:8080/metrics                 # Prometheus exposition
//	mamdr-serve -ps-addrs 127.0.0.1:7001,127.0.0.1:7002   # serve a live PS cluster's parameters
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mamdr"
	"mamdr/internal/autograd/kernels"
	"mamdr/internal/cluster"
	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/faultinject"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/obsv"
	"mamdr/internal/paramvec"
	"mamdr/internal/ps"
	"mamdr/internal/quality"
	"mamdr/internal/rollout"
	"mamdr/internal/serve"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mamdr-serve: ")

	var (
		preset        = flag.String("preset", "taobao-10", "benchmark preset to train on")
		samples       = flag.Int("samples", 8000, "dataset scale")
		model         = flag.String("model", "mlp", "model structure")
		epochs        = flag.Int("epochs", 10, "training epochs before serving")
		seed          = flag.Int64("seed", 1, "random seed")
		addr          = flag.String("addr", ":8080", "listen address")
		replicas      = flag.Int("replicas", 0, "forward passes that run at once: the request scheduler's slots, one model replica each (0 = GOMAXPROCS)")
		kernelThreads = flag.Int("kernel-threads", 1, "goroutines per math kernel (0 = GOMAXPROCS; serving defaults to 1 so concurrency comes from -replicas, not intra-op fan-out)")
		timeout       = flag.Duration("timeout", 5*time.Second, "per-request deadline: a prediction still waiting for a forward slot when it passes gets 503 + Retry-After")
		checkpoint    = flag.String("checkpoint", "", "load a state saved with core.State.Save instead of training")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
		embDim        = flag.Int("emb", 8, "embedding dimension (must match the cluster's -emb when -ps-addrs is set)")
		psAddrs       = flag.String("ps-addrs", "", "comma-separated shard-server addresses (replicas of one shard joined with '|'): load the shared parameters from the running cluster and report its connectivity in /readyz")

		withQuality   = flag.Bool("quality", true, "streaming model-quality tracking: /feedback label joins, drift detection vs the checkpoint baseline, quality SLO breach counters (needs -metrics)")
		qualityWindow = flag.Int("quality-window", 0, "labeled prequential-evaluation window per domain (0 = default)")
		feedbackTTL   = flag.Duration("feedback-ttl", 0, "how long /predict scores wait in the join buffer for /feedback labels (0 = default 2m)")

		withMetrics = flag.Bool("metrics", true, "expose Prometheus /metrics and instrument the request path")
		withPprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		accessLog   = flag.String("access-log", "stderr", `structured JSON access log: "stderr", "stdout", a file path, or "off"`)

		tracePath   = flag.String("trace", "", "stream per-request spans as JSONL to this file (serving never exits; use GET /debug/trace?sec=N for a Chrome/Perfetto capture)")
		traceSample = flag.Float64("trace-sample", 1, "fraction of request root spans to record (0..1)")
		flightDump  = flag.String("flight-dump", "", "flight-recorder dump path prefix for anomalies such as pool saturation (default <trace>.flight when -trace is set)")
		withTrace   = flag.Bool("tracing", true, "enable request tracing and /debug/trace capture-on-demand")

		profileDir      = flag.String("profile-dir", "", "continuous profiling: keep a ring of CPU+heap pprof profiles in this directory")
		profileInterval = flag.Duration("profile-interval", 30*time.Second, "continuous-profiling capture cadence (with -profile-dir)")

		withRollout    = flag.Bool("rollout", true, "canary-gate live publications (POST /admin/publish): new snapshots take a traffic fraction and auto-promote or auto-rollback on live quality")
		canaryFraction = flag.Float64("canary-fraction", 0.2, "traffic share the canary snapshot takes during evaluation")
		rolloutLabeled = flag.Int("rollout-min-labeled", 0, "labeled observations per arm before the AUC/logloss gates may decide (0 = default 200)")
		rolloutScores  = flag.Int("rollout-min-scores", 0, "served scores per arm before the PSI gate may decide (0 = default 500)")
		rolloutMaxWait = flag.Duration("rollout-max-wait", 0, "fail-safe: a canary still unproven after this long is rolled back (0 = default 10m)")
		maxQueue       = flag.Int("max-queue", 0, "admission control: shed predictions once this many wait for a forward slot beyond the -replicas running (0 = 4×replicas)")
		serveFaults    = flag.String("serve-faults", "", "serving-path fault schedule (op:kind@occurrences; ops: Predict, PublishSource, UpstreamPing, UpstreamSnapshot), seeded by -seed")

		batchMax      = flag.Int("batch-max", 0, "every /predict goes through one scheduler: a request that finds a replica free runs at once; ones that arrive while every replica is busy coalesce into forwards of at most this many rows (0 = off, one request per forward)")
		snapshotQuant = flag.String("snapshot-quant", "off", `serving-snapshot embedding storage: "off" (float64) or "int8" (symmetric-per-row quantized tables + hot-row dequantization cache)`)
		quantCache    = flag.Int("quant-cache", 0, "dequantization LRU capacity in rows across all domains (0 = default 4096, with -snapshot-quant=int8)")
	)
	flag.Parse()
	kernels.SetThreads(*kernelThreads)

	ds, err := mamdr.GenerateDatasetErr(mamdr.DatasetSpec{Preset: *preset, TotalSamples: *samples, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}

	res, err := mamdr.Train(mamdr.TrainSpec{
		Dataset: ds, Model: *model, Framework: "mamdr",
		Epochs: pickEpochs2(*checkpoint, *psAddrs, *epochs), EmbDim: *embDim, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	state, ok := res.Predictor.(*core.State)
	if !ok {
		log.Fatalf("predictor is %T, want *core.State", res.Predictor)
	}
	var ckptBaseline *quality.Baseline
	var initialCRC uint32
	if *checkpoint != "" {
		b, env, err := state.LoadWithBaseline(*checkpoint)
		if err != nil {
			log.Fatal(err)
		}
		ckptBaseline, initialCRC = b, env.CRC
		log.Printf("loaded checkpoint %s (envelope v%d, crc %08x, %d payload bytes)",
			*checkpoint, env.Version, env.CRC, env.PayloadBytes)
	} else {
		log.Printf("trained %s on %s: mean test AUC %.4f", *model, ds.Name, res.MeanTestAUC)
	}

	// Cluster-backed state: pull the shared parameters straight from a
	// running shard cluster (the one mamdr-train -ps-serve hosts). The
	// initial load retries with seeded backoff — a serve process racing
	// its cluster at startup waits for it instead of dying on the first
	// connection refusal — and the cluster stays wired in as the
	// Upstream: /readyz probes it through the circuit breaker, and
	// POST /admin/publish {"source":"upstream"} pulls fresh snapshots.
	var upstream *serve.Upstream
	if *psAddrs != "" {
		groups := cluster.ParseAddrs(*psAddrs)
		if len(groups) == 0 {
			log.Fatal("-ps-addrs: no addresses given")
		}
		serving := models.MustNew(*model, models.Config{Dataset: ds, EmbDim: *embDim, Seed: *seed})
		plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), models.EmbeddingTablesOf(serving)), len(groups), *seed)
		dialCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		router, snap, err := cluster.DialSnapshot(dialCtx, plan, groups, nil, cluster.Options{}, ps.Backoff{Seed: *seed})
		cancel()
		if err != nil {
			log.Fatalf("-ps-addrs: %v", err)
		}
		state.Shared = snap
		log.Printf("loaded shared parameters from %d-shard cluster at %s", len(groups), *psAddrs)
		upstream = &serve.Upstream{
			// The startup router stays on as the /readyz probe: TryPing
			// never condemns a replica, and every replica must answer
			// within a second.
			Ping: func(ctx context.Context) error {
				ctx, cancel := context.WithTimeout(ctx, time.Second)
				defer cancel()
				return router.TryPing(ctx)
			},
			// Each pull dials a fresh router: shard condemnation inside a
			// Router is permanent, so a long-lived one would go stale after
			// any transient loss. Publishes are rare; the dial is cheap.
			Snapshot: func() (paramvec.Vector, error) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				r, v, err := cluster.DialSnapshot(ctx, plan, groups, nil, cluster.Options{}, ps.Backoff{Seed: *seed})
				if err != nil {
					return nil, err
				}
				r.Close()
				return v, nil
			},
		}
	}

	var reg *telemetry.Registry
	if *withMetrics {
		reg = telemetry.New()
		telemetry.RegisterGoRuntime(reg)
		obsv.RegisterBuildInfo(reg, "serve")
	}
	logger, err := openAccessLog(*accessLog)
	if err != nil {
		log.Fatal(err)
	}

	// Tracing: per-request spans with an optional JSONL stream; the
	// flight recorder dumps recent spans when a prediction times out in
	// the scheduler. Capture-on-demand Chrome JSON lives at /debug/trace.
	var tracer *trace.Tracer
	if *withTrace || *tracePath != "" || *flightDump != "" {
		if *tracePath != "" && *flightDump == "" {
			*flightDump = *tracePath + ".flight"
		}
		tracer = trace.New(trace.Options{Sample: *traceSample, FlightPath: *flightDump})
		if *tracePath != "" {
			exp, err := trace.OpenJSONLExporter(*tracePath)
			if err != nil {
				log.Fatal(err)
			}
			defer exp.Close()
			tracer.AddSink(exp)
			log.Printf("streaming spans to %s", *tracePath)
		}
	}

	// Continuous profiling: bounded pprof ring, flushed next to the
	// flight-recorder dump when an anomaly fires.
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

	// Model-quality tracking: the drift baseline comes from the
	// checkpoint envelope when one is loaded; otherwise it is profiled
	// from the validation split of the model this process just trained.
	// A pre-quality (v2) checkpoint carries no baseline — serving
	// continues with drift detection disabled, logged and counted.
	var tracker *quality.Tracker
	if *withQuality && reg != nil {
		tracker = quality.NewTracker(reg, quality.Options{Checks: true, Window: *qualityWindow})
		switch {
		case ckptBaseline != nil:
			tracker.SetBaseline(ckptBaseline)
			log.Printf("quality baseline loaded from checkpoint (%d domains)", len(ckptBaseline.Domains))
		case *checkpoint != "":
			tracker.SetBaseline(nil)
			log.Printf("pre-quality checkpoint: drift detection disabled (re-save with a baseline to enable)")
		default:
			tracker.SetBaseline(framework.QualityBaseline(state, ds, data.Val))
			log.Printf("quality baseline profiled from the validation split")
		}
	}

	var faults *faultinject.Injector
	if *serveFaults != "" {
		faults, err = faultinject.Parse(*serveFaults, *seed)
		if err != nil {
			log.Fatalf("-serve-faults: %v", err)
		}
		log.Printf("serving-path fault injection armed: %s (seed %d)", *serveFaults, *seed)
	}

	publishInfo := obsv.SnapshotInfoPublisher(reg, "serve")
	srv := serve.NewWithOptions(state, ds, serve.Options{
		Replicas:        *replicas,
		RequestTimeout:  *timeout,
		MaxQueue:        *maxQueue,
		ShedSeed:        *seed,
		Metrics:         reg,
		AccessLog:       logger,
		Tracer:          tracer,
		Upstream:        upstream,
		UpstreamBackoff: ps.Backoff{Seed: *seed},
		Quality:         tracker,
		FeedbackTTL:     *feedbackTTL,
		Faults:          faults,
		InitialCRC:      initialCRC,
		BatchMax:        *batchMax,
		SnapshotQuant:   *snapshotQuant,
		QuantCacheRows:  *quantCache,
		OnSwap: func(version uint64, crc uint32) {
			publishInfo(version, crc)
			log.Printf("snapshot v%d (crc %08x) is now the incumbent", version, crc)
		},
		// Replicas mirror the trained model's structure (same Config,
		// including Seed); the server drops their weights, because every
		// prediction binds the replica to the served snapshot.
		ReplicaFactory: func() models.Model {
			return models.MustNew(*model, models.Config{Dataset: ds, EmbDim: *embDim, Seed: *seed})
		},
	})
	publishInfo(1, initialCRC)
	if *batchMax > 0 {
		log.Printf("request coalescing on: batches of up to %d rows, formed only while every replica is busy", *batchMax)
	}
	if *snapshotQuant == "int8" {
		log.Printf("snapshot embeddings quantized int8 (dequant cache %d rows)", func() int {
			if *quantCache > 0 {
				return *quantCache
			}
			return 4096
		}())
	}

	// The canary gate: serve routes traffic and reports observations,
	// the controller decides, the Fleet interface (srv) executes. A
	// ticker arms the fail-safe deadline so an unproven canary cannot
	// fly forever on a quiet service.
	if *withRollout {
		ctrl := rollout.New(srv, reg, tracer, rollout.Config{
			Fraction:   *canaryFraction,
			MinLabeled: *rolloutLabeled,
			MinScores:  *rolloutScores,
			MaxWait:    *rolloutMaxWait,
			OnDecision: func(d rollout.Decision) { log.Print(d.String()) },
		})
		srv.SetRollout(ctrl)
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for range t.C {
				ctrl.Tick()
			}
		}()
	}
	handler := srv.Handler()
	if *withPprof {
		// Mount pprof explicitly instead of relying on the package's
		// DefaultServeMux side effect, so it only exists behind the flag.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("pprof on /debug/pprof/")
	}
	fmt.Printf("serving %d domains on %s\n", ds.NumDomains(), *addr)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
	}

	// Graceful drain: on SIGTERM/SIGINT, fail /readyz first (load
	// balancers stop sending traffic), then let in-flight requests
	// finish before exiting; a second signal or the drain timeout kills
	// the process regardless.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills immediately
		log.Printf("signal received; draining (readyz now 503, up to %s for in-flight requests)", *drainTimeout)
		srv.SetDraining(true)
		// Keep the listener open briefly so readiness probes on new
		// connections observe the 503 and stop routing; Shutdown would
		// otherwise close it before any balancer re-polls.
		if grace := time.Second; *drainTimeout > 2*grace {
			time.Sleep(grace)
		}
		shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Fatalf("drain incomplete: %v", err)
		}
		srv.Close() // flush any still-open micro-batches
		log.Printf("drained cleanly")
	}
}

// openAccessLog resolves the -access-log destination to a JSON slog
// logger, or nil when disabled.
func openAccessLog(dest string) (*slog.Logger, error) {
	var w *os.File
	switch dest {
	case "", "off", "none":
		return nil, nil
	case "stderr":
		w = os.Stderr
	case "stdout":
		w = os.Stdout
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		w = f
	}
	return slog.New(slog.NewJSONHandler(w, nil)), nil
}

// pickEpochs2 trains minimally when a checkpoint or a live PS cluster
// will overwrite the shared state anyway (the model must still be
// constructed with the right structure).
func pickEpochs2(checkpoint, psAddrs string, epochs int) int {
	if checkpoint != "" || psAddrs != "" {
		return 1
	}
	return epochs
}
