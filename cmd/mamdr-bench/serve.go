package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mamdr/internal/autograd/kernels"
	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/quality"
	"mamdr/internal/serve"
	"mamdr/internal/synth"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// serveSpec is what distinguishes the three serving workloads.
type serveSpec struct {
	shape shape
	// rate > 0: open loop at that many requests per second.
	rate float64
	// live is the throughput profile (coalescing + int8 snapshots) with
	// feedback and publishes beside the reads.
	live bool
	// sloMS is the per-request latency limit behind slo_ok_ratio.
	sloMS float64
	// saturated marks a closed loop that keeps every core busy: it
	// reports the undisturbed quartile over slices (stats.go).
	saturated bool
}

func servePoint(sz sizes) serveSpec {
	return serveSpec{shape: shape{pairs: 1, domains: sz.tailDomains}, sloMS: sz.sloPointMS, saturated: true}
}

func serveRank(sz sizes) serveSpec {
	return serveSpec{
		shape: shape{pairs: sz.rankCandidates, oneUser: true, domains: sz.rankHeadDoms},
		rate:  sz.rankRateRPS, sloMS: sz.sloRankMS,
	}
}

func serveLive(sz sizes) serveSpec {
	return serveSpec{shape: shape{pairs: sz.livePairs, domains: sz.tailDomains}, live: true, sloMS: sz.sloLiveMS}
}

// serveRig is a serving workload after set-up: a trained state behind
// the real handler on a loopback listener, warmed up.
type serveRig struct {
	e        *env
	spec     serveSpec
	ds       *data.Dataset
	newModel func() models.Model
	// refs are private copies of every state the server may answer
	// from (the boot state; on serve-live also the alternate published
	// checkpoint), each with a model of its own for core.State.Predict.
	refs    []*core.State
	ckpts   []string
	reg     *telemetry.Registry
	srv     *serve.Server
	handler http.Handler
	hs      *http.Server
	base    string
	pools   [][]request
}

func (r *serveRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r.hs.Shutdown(ctx) // the listener and every connection goroutine end here
	r.srv.Close()
	for _, p := range r.ckpts {
		os.Remove(p)
	}
}

// options is cmd/mamdr-serve's default configuration (replicas =
// GOMAXPROCS, metrics, quality and tracing on, no coalescing, no
// quantization), or its throughput profile on serve-live. No rollout
// gate is attached, so a publish swaps at once.
func (r *serveRig) options(observed bool) serve.Options {
	opts := serve.Options{ReplicaFactory: r.newModel}
	if observed {
		r.reg = telemetry.New()
		tracker := quality.NewTracker(r.reg, quality.Options{Checks: true})
		tracker.SetBaseline(framework.QualityBaseline(r.refs[0], r.ds, data.Val))
		opts.Metrics, opts.Quality, opts.Tracer = r.reg, tracker, trace.New(trace.Options{Sample: 1})
	}
	if r.spec.live {
		opts.BatchMax, opts.SnapshotQuant = 64, "int8"
	}
	return opts
}

func setupServe(e *env, spec serveSpec) (*serveRig, error) {
	ds, oracle := synth.GenerateWithOracle(tailConfig(e.sz, e.seed))
	r := &serveRig{e: e, spec: spec, ds: ds, newModel: modelFactory(ds)}
	st, ok := framework.MustNew("mamdr").Fit(r.newModel(), ds, tailFit(e.sz)).(*core.State)
	if !ok {
		return nil, fmt.Errorf("mamdr predictor is not a *core.State")
	}
	r.refs = []*core.State{{Model: r.newModel(), Shared: st.Shared, Specific: st.Specific}}
	if spec.live {
		// The alternate checkpoint serves θ_S alone: every θ_i zero.
		zero := st.Shared.Zero()
		alt := &core.State{Model: r.newModel(), Shared: st.Shared, Specific: make([]paramvec.Vector, len(st.Specific))}
		for d := range alt.Specific {
			alt.Specific[d] = zero
		}
		r.refs = append(r.refs, alt)
		// Publishes alternate starting with the one not being served.
		for i, s := range []*core.State{alt, st} {
			path := filepath.Join(e.tmp, fmt.Sprintf("publish-%d.ckpt", i))
			if err := s.Save(path); err != nil {
				return nil, err
			}
			r.ckpts = append(r.ckpts, path)
		}
	}

	r.srv = serve.NewWithOptions(st, ds, r.options(true))
	r.handler = r.srv.Handler()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.hs = &http.Server{Handler: r.handler}
	go r.hs.Serve(lis) // ends at Shutdown in close
	r.base = "http://" + lis.Addr().String()

	c := newClient(r.base)
	defer c.close()
	for _, req := range buildPool(e.seed^0x5eed, e.sz.warmup, spec.shape, ds.NumUsers, ds.NumItems) {
		var resp serve.PredictResponse
		if err := c.post("/predict", req.body, &resp); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	r.buildPools(oracle)
	return r, nil
}

// buildPools draws the per-client request pools, with the oracle's
// clicks for feedback.
func (r *serveRig) buildPools(oracle *synth.Oracle) {
	conns := clients()
	if r.spec.rate > 0 {
		// An open loop must be able to send when a request is due even
		// while earlier ones are in flight: with only C connections the
		// schedule would wait on the server, as a closed loop does.
		conns *= 4
	}
	r.pools = make([][]request, conns)
	for ci := range r.pools {
		pool := buildPool(r.e.seed*1000+int64(ci), r.e.sz.pool, r.spec.shape, r.ds.NumUsers, r.ds.NumItems)
		for i := range pool {
			q := &pool[i]
			q.labels = make([]float64, len(q.users))
			for j := range q.users {
				if oracle.Score(q.domain, q.users[j], q.items[j]) > 0 {
					q.labels[j] = 1
				}
			}
		}
		r.pools[ci] = pool
	}
}

// reference fills in, for the checked sample of every pool, what
// core.State.Predict answers on each state the server may serve.
func (r *serveRig) reference() {
	for _, pool := range r.pools {
		for i := 0; i < len(pool); i += r.e.sz.checkEvery {
			q := &pool[i]
			ins := make([]data.Interaction, len(q.users))
			for j := range ins {
				ins[j] = data.Interaction{User: q.users[j], Item: q.items[j]}
			}
			b := r.ds.MakeBatch(q.domain, ins)
			for _, ref := range r.refs {
				q.want = append(q.want, ref.Predict(b))
			}
		}
	}
}

func (r *serveRig) loadSpec(window float64) loadSpec {
	ls := loadSpec{window: time.Duration(window * float64(time.Second)), rate: r.spec.rate}
	if r.spec.live {
		ls.tol = r.e.sz.quantTol
		ls.feedbackEvery = r.e.sz.feedbackEvery
		ls.publish, ls.publishEvery = r.ckpts, r.e.sz.publishEvery
	}
	return ls
}

// account folds a window into the outcome and returns the share of
// requests sent that were answered correctly within the latency limit.
func (r *serveRig) account(o *outcome, res *loadResult) float64 {
	o.attempted += res.attempted()
	o.failed += res.failed
	for _, e := range res.errs {
		o.violate("%s", e)
	}
	if res.checked == 0 {
		o.violate("no answer was compared with core.State.Predict")
	}
	limit := time.Duration(r.spec.sloMS * float64(time.Millisecond))
	within := 0
	for _, s := range res.predicts {
		if s.ok && s.lat <= limit {
			within++
		}
	}
	return float64(within) / float64(len(res.predicts))
}

func runServe(e *env, spec serveSpec) (*outcome, error) {
	// cmd/mamdr-serve's default: one kernel thread, concurrency comes
	// from the replica pool. The flag is set before its training too.
	kernels.SetThreads(1)
	o := newOutcome()
	reps := e.sz.setupReps
	if e.rec != nil {
		reps = 1
	}
	var rig *serveRig
	var setups []float64
	for i := 0; i < reps; i++ {
		if rig != nil {
			// A discarded set-up is the harness's garbage, not the
			// server's: collect it before it can count in peak_rss_mb.
			rig.close()
			rig = nil
			runtime.GC()
		}
		t := time.Now()
		var err error
		if rig, err = setupServe(e, spec); err != nil {
			return o, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer rig.close()
	rig.reference()
	if e.rec != nil {
		return o, rig.traced(o)
	}

	ls := rig.loadSpec(e.seconds)
	res := runLoad(rig.base, rig.pools, ls)
	slo := rig.account(o, res)
	answered := latenciesMS(res.predicts)
	if len(answered) == 0 {
		return o, fmt.Errorf("no /predict was answered: %v", res.errs)
	}
	o.set("setup_s", median(setups))
	perSecond := float64(len(answered)) / res.elapsed.Seconds()
	opMS, tailMS := median(answered), slicedTail(res.predicts, ls.window, 5, tailPercentile)
	if spec.saturated {
		o.note("op_median_ms", opMS, "ms")
		o.note("throughput_window_per_s", perSecond, "1/s")
		opMS, tailMS, perSecond = undisturbed(res.predicts, ls.window)
	}
	o.set("throughput_per_s", perSecond)
	o.set("op_ms", opMS)
	o.set("op_tail_ms", tailMS)
	o.set("peak_rss_mb", peakRSSMB())
	o.note("predict_samples", float64(len(res.predicts)), "count")
	o.note("answers_checked", float64(res.checked), "count")
	o.note("slo_ok_ratio", slo, "ratio")
	if ls.rate > 0 {
		o.note("rate_rps", ls.rate, "1/s")
		o.note("gen_late_ratio", float64(res.late)/float64(len(res.predicts)), "ratio")
	}
	if spec.live {
		o.note("feedbacks", float64(res.feedbacks), "count")
		o.note("publishes", float64(res.publishes), "count")
		o.note("publish_ms", median(res.publishMS), "ms")
	}
	return o, nil
}
