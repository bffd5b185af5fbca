// Command mamdr-serve loads the MAMDR state a mamdr-train -save wrote —
// θ_S, every θ_i, the validation-time quality baseline and the spec of
// the dataset and model it was trained on, from which it rebuilds both
// — and serves click predictions over HTTP: the serving side of the
// paper's MDR platform. It never trains, and -checkpoint is required.
//
// Usage:
//
//	mamdr-train -preset taobao-10 -epochs 10 -save model.ckpt
//	mamdr-train -preset taobao-10 -epochs 10 -ps-workers 4 -save model.ckpt   # or a PS-Worker fit
//	mamdr-serve -checkpoint model.ckpt -addr :8080
//	curl -XPOST localhost:8080/predict -d '{"domain":0,"users":[1,2],"items":[3,4]}'
//	curl -XPOST localhost:8080/domains          # register a new domain
//	curl localhost:8080/metrics                 # Prometheus exposition
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mamdr"
	"mamdr/internal/autograd/kernels"
	"mamdr/internal/core"
	"mamdr/internal/faultinject"
	"mamdr/internal/models"
	"mamdr/internal/obsv"
	"mamdr/internal/quality"
	"mamdr/internal/rollout"
	"mamdr/internal/serve"
	"mamdr/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mamdr-serve: ")

	harness := obsv.HarnessFlags(flag.CommandLine, obsv.Uses{Trace: true})
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		replicas      = flag.Int("replicas", 0, "forward passes that run at once: the request scheduler's slots, one model replica each (0 = GOMAXPROCS)")
		kernelThreads = flag.Int("kernel-threads", 1, "goroutines per math kernel (0 = GOMAXPROCS; serving defaults to 1 so concurrency comes from -replicas, not intra-op fan-out)")
		timeout       = flag.Duration("timeout", 5*time.Second, "per-request deadline: a prediction still waiting for a forward slot when it passes gets 503 + Retry-After")
		checkpoint    = flag.String("checkpoint", "", "the state, quality baseline and training spec that mamdr-train -save wrote; required")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")

		qualityWindow = flag.Int("quality-window", 0, fmt.Sprintf("labeled prequential-evaluation window per domain (0 = default %d)", quality.DefaultWindow))
		feedbackTTL   = flag.Duration("feedback-ttl", 0, "how long /predict scores wait in the join buffer for /feedback labels (0 = default 2m)")

		withPprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		accessLog = flag.String("access-log", "stderr", `structured JSON access log: "stderr", "stdout", a file path, or "off"`)

		withRollout    = flag.Bool("rollout", true, "canary-gate live publications (POST /admin/publish): new snapshots take a traffic fraction and auto-promote or auto-rollback on live quality")
		canaryFraction = flag.Float64("canary-fraction", 0.2, "traffic share the canary snapshot takes during evaluation")
		rolloutLabeled = flag.Int("rollout-min-labeled", 0, fmt.Sprintf("labeled observations per arm before the AUC/logloss gates may decide (0 = default %d)", quality.MinLabeled))
		rolloutScores  = flag.Int("rollout-min-scores", 0, fmt.Sprintf("served scores per arm before the PSI gate may decide (0 = default %d)", quality.MinScores))
		rolloutMaxWait = flag.Duration("rollout-max-wait", 0, "fail-safe: a canary still unproven after this long is rolled back (0 = default 10m)")
		maxQueue       = flag.Int("max-queue", 0, "admission control: shed predictions once this many wait for a forward slot beyond the -replicas running (0 = 4×replicas)")
		serveFaults    = flag.String("serve-faults", "", "serving-path fault schedule (op:kind@occurrences; ops: Predict, PublishSource), seeded by the checkpoint's training seed")

		batchMax      = flag.Int("batch-max", 0, "every /predict goes through one scheduler: a request that finds a replica free runs at once; ones that arrive while every replica is busy coalesce into forwards of at most this many rows (0 = off, one request per forward)")
		snapshotQuant = flag.String("snapshot-quant", "off", `serving-snapshot embedding storage: "off" (float64) or "int8" (symmetric-per-row quantized tables, each gathered row decoded on lookup)`)
	)
	flag.Parse()
	if *checkpoint == "" {
		log.Fatal("nothing to serve: -checkpoint is required (the state mamdr-train -save wrote)")
	}
	if *canaryFraction <= 0 || *canaryFraction > 1 {
		log.Fatalf("-canary-fraction %v: want a traffic share in (0, 1]", *canaryFraction)
	}
	if err := serve.CheckSnapshotQuant(*snapshotQuant); err != nil {
		log.Fatal(err)
	}
	kernels.SetThreads(*kernelThreads)

	ck, env, ds, err := load(*checkpoint)
	if err != nil {
		log.Fatal(err)
	}
	spec := ck.Spec
	// The drift baseline comes from the checkpoint (serve.Open installs
	// it); without one, drift detection is disabled, logged and counted.
	if ck.Quality != nil {
		log.Printf("quality baseline loaded from checkpoint (%d domains)", len(ck.Quality.Domains))
	} else {
		log.Printf("checkpoint carries no quality baseline: drift detection disabled")
	}

	reg := telemetry.New()
	telemetry.RegisterGoRuntime(reg)
	obsv.RegisterBuildInfo(reg, "serve")
	logger, err := openAccessLog(*accessLog)
	if err != nil {
		log.Fatal(err)
	}

	// Tracing: every request is traced, and -trace streams the spans to
	// a file; the flight recorder dumps recent spans when a prediction
	// times out in the scheduler. Capture-on-demand Chrome JSON lives
	// at /debug/trace.
	h, err := harness(true)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()

	var faults *faultinject.Injector
	if *serveFaults != "" {
		faults, err = faultinject.Parse(*serveFaults, spec.Seed)
		if err != nil {
			log.Fatalf("-serve-faults: %v", err)
		}
		log.Printf("serving-path fault injection armed: %s (seed %d)", *serveFaults, spec.Seed)
	}

	// ck is not read after Open, so its payload bytes can be collected.
	srv, err := serve.Open(ck, env, ds, serve.Options{
		Replicas:       *replicas,
		RequestTimeout: *timeout,
		MaxQueue:       *maxQueue,
		ShedSeed:       spec.Seed,
		Metrics:        reg,
		AccessLog:      logger,
		Tracer:         h.Tracer,
		Quality:        quality.NewTracker(reg, quality.Options{Checks: true, Window: *qualityWindow}),
		FeedbackTTL:    *feedbackTTL,
		Faults:         faults,
		BatchMax:       *batchMax,
		SnapshotQuant:  *snapshotQuant,
		OnSwap: func(version uint64, crc uint32) {
			log.Printf("snapshot v%d (crc %08x) is now the incumbent", version, crc)
		},
		// load built the spec's model once, so this cannot fail; the server
		// drops each replica's weights and binds it to the snapshot it serves.
		ReplicaFactory: func() models.Model { r, _ := mamdr.SpecModel(ds, spec); return r },
	})
	if err != nil {
		log.Fatal(err)
	}
	if *batchMax > 0 {
		log.Printf("request coalescing on: batches of up to %d rows, formed only while every replica is busy", *batchMax)
	}
	if *snapshotQuant == "int8" {
		log.Printf("snapshot embeddings quantized int8")
	}

	// The canary gate: serve routes traffic and reports observations,
	// the controller decides, the Fleet interface (srv) executes. A
	// ticker arms the fail-safe deadline so an unproven canary cannot
	// fly forever on a quiet service.
	if *withRollout {
		ctrl := rollout.New(srv, reg, h.Tracer, rollout.Config{
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
	fmt.Printf("serving %d domains on %s\n", ds.NumDomains(), *addr)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler(srv.Handler(), *withPprof),
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

// load reads the checkpoint at path, refuses one without a dataset
// digest, and only then rebuilds the dataset and checks the model its
// spec names, so Open can serve the file as a publish of it would.
func load(path string) (core.Checkpoint, core.Envelope, *mamdr.Dataset, error) {
	ck, env, err := core.ReadState(path)
	if err == nil {
		err = serve.CheckDigest(ck.Spec)
	}
	if err != nil {
		return ck, env, nil, err
	}
	log.Printf("loaded checkpoint %s (envelope v%d, crc %08x, %d payload bytes), trained on %+v",
		path, env.Version, env.CRC, env.PayloadBytes, ck.Spec)
	ds, err := mamdr.SpecDataset(&ck.Spec)
	if err == nil {
		_, err = mamdr.SpecModel(ds, ck.Spec)
	}
	return ck, env, ds, err
}

// handler is the listener's handler: the server's API, and with
// withPprof net/http/pprof under /debug/pprof/ beside it. The API
// listener is public, so profiling is there only behind -pprof.
func handler(api http.Handler, withPprof bool) http.Handler {
	if !withPprof {
		return api
	}
	log.Printf("pprof on /debug/pprof/")
	mux := http.NewServeMux()
	obsv.MountPprof(mux)
	mux.Handle("/", api)
	return mux
}

// openAccessLog resolves the -access-log destination to a JSON slog
// logger, or nil when disabled. A file rotates like every other log
// file the programs append to.
func openAccessLog(dest string) (*slog.Logger, error) {
	var w io.Writer
	switch dest {
	case "", "off", "none":
		return nil, nil
	case "stderr":
		w = os.Stderr
	case "stdout":
		w = os.Stdout
	default:
		el, err := telemetry.OpenEventLog(dest)
		if err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		w = el
	}
	return slog.New(slog.NewJSONHandler(w, nil)), nil
}
