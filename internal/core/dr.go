package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mamdr/internal/autograd"
	"mamdr/internal/autograd/kernels"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/trace"
)

// DROptions selects Domain Regularization ablations used by the design-
// choice benchmarks; the zero value is the paper's Algorithm 2.
type DROptions struct {
	// SkipTargetStep omits the final update on the target domain
	// (Eq. 7), degrading DR to naive cross-domain transfer.
	SkipTargetStep bool
	// ReverseOrder updates on the target domain before the helper,
	// breaking the fixed order the Section IV-C analysis relies on.
	ReverseOrder bool
}

// DomainRegularizationPhase is Algorithm 3's inner `for i` loop — one DR
// update (Algorithm 2) of every θ_i — and the only place that loop
// exists: MAMDR.Fit, the PS trainer, the ablations and the benchmarks
// all call it.
//
// Algorithm 2 reads θ_S, which the phase holds fixed, and its own θ_i; it
// never reads another θ_j. The targets are therefore independent, and the
// phase hands them, largest train split first, from a queue to workers,
// each owning one model. Worker 0 runs on the calling goroutine with
// st.Model. The others run on replicas when the caller has models of
// st.Model's structure to lend (the PS trainer: its live workers'),
// min(kernels.Threads(), targets, 1+len(replicas)) workers in all. Given
// none, the phase runs min(kernels.Threads(), targets) workers on
// replicas it builds through models.Replicator and keeps in st for the
// next phase — one worker when st.Model is no Replicator. A worker writes
// st.Specific[i] of its current target and reads st.Shared, so nothing is
// locked or copied. For its duration the phase splits the kernel thread
// budget among its workers (kernels.Hold): the cap set by
// kernels.SetThreads bounds workers × kernel goroutines, not each. A
// worker keeps its share until the phase returns; what idles while the
// queue drains is bounded by the smallest targets, which are handed out
// last.
//
// Randomness. The phase draws one rng.Int63() per target, in target
// order, before any target runs. That number seeds everything random in
// the target: helper sampling, batch shuffles, and the dropout masks of
// the model it runs on. θ_i thus depends on (θ_S, θ_i, seed_i) alone —
// not on the worker count, on which worker ran it, or on the order the
// queue was drained in — and a loop over DomainRegularization on the same
// rng, which draws the same seeds one at a time, lands on the same floats.
//
// A panic inside a target stops the queue, the other workers finish the
// target they are on, the kernel budget is released, and the panic is
// raised again on the calling goroutine with the target's name. When the
// phase returns, every model holds the θ_S + θ_i of whichever target it
// ran last, with its dropout stream wherever that target left it:
// whoever trains next loads and seeds what it needs, as the DN and
// alternate epochs and DR targets do.
func DomainRegularizationPhase(st *State, ds *data.Dataset, cfg framework.Config, rng *rand.Rand, opts DROptions, replicas ...models.Model) {
	n := ds.NumDomains()
	seeds := make([]int64, n)
	queue := make([]int, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
		queue[i] = i
	}
	sort.SliceStable(queue, func(a, b int) bool {
		return len(ds.Domains[queue[a]].Train) > len(ds.Domains[queue[b]].Train)
	})
	if len(replicas) == 0 {
		replicas = st.ownReplicas(min(kernels.Threads(), n) - 1)
	}
	workers := min(kernels.Threads(), n, 1+len(replicas))

	start := time.Now()
	ctx, span := trace.Start(cfg.Tracer.Context(context.Background()), "dr.phase",
		trace.A("targets", n), trace.A("workers", workers))
	defer kernels.Hold(workers)()

	var (
		next    atomic.Int64
		failure atomic.Pointer[string] // the first panic, once any target has raised one
		wg      sync.WaitGroup
	)
	work := func(id int, m models.Model) {
		w := newDRWorker(id, m, cfg)
		for failure.Load() == nil {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			target := queue[k]
			func() {
				defer func() {
					if p := recover(); p != nil {
						msg := fmt.Sprintf("core: DR target %s (worker %d): %v\n%s",
							ds.Domains[target].Name, id, p, debug.Stack())
						failure.CompareAndSwap(nil, &msg)
					}
				}()
				w.run(ctx, st, ds, target, cfg, opts, seeds[target])
			}()
		}
	}
	for id := 1; id < workers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(id, replicas[id-1])
		}()
	}
	work(0, st.Model)
	wg.Wait()

	span.End()
	cfg.Telemetry.ObserveDRPhase(time.Since(start).Seconds())
	if msg := failure.Load(); msg != nil {
		panic(*msg)
	}
}

// ownReplicas returns n replicas of st.Model, building the ones st does
// not hold yet; none when the model is no models.Replicator.
func (st *State) ownReplicas(n int) []models.Model {
	r, ok := st.Model.(models.Replicator)
	if !ok {
		return nil
	}
	for len(st.replicas) < n {
		st.replicas = append(st.replicas, r.Replica())
	}
	return st.replicas[:max(n, 0)]
}

// DomainRegularization runs Algorithm 2 for one target domain i on
// st.Model: sample k helper domains; for each helper j, start from θ_i,
// take inner steps on T_j, then on T_i (the fixed order that regularizes
// domain-j information toward the target), and move θ_i toward the
// endpoint with learning rate γ (Eq. 8). Updates run in the composed
// space Θ = θ_S + θ_i with θ_S held fixed.
//
// It draws one seed from rng and runs the target on it, exactly as
// DomainRegularizationPhase does for each of its targets, so calling it
// for every target in order is that phase on one worker.
func DomainRegularization(st *State, ds *data.Dataset, target int, cfg framework.Config, rng *rand.Rand) {
	seed := rng.Int63()
	ctx := cfg.Tracer.Context(context.Background())
	newDRWorker(0, st.Model, cfg).run(ctx, st, ds, target, cfg, DROptions{}, seed)
}

// drWorker is what one worker of a DR phase owns: a model, the inner
// optimizer it restarts for every lookahead, and the RNG it re-seeds for
// every target.
type drWorker struct {
	id     int
	model  models.Model
	params []*autograd.Tensor
	inner  optim.Optimizer
	rng    *rand.Rand
}

func newDRWorker(id int, m models.Model, cfg framework.Config) *drWorker {
	return &drWorker{
		id: id, model: m, params: m.Parameters(),
		inner: optim.New(cfg.InnerOpt, cfg.LR),
		rng:   rand.New(rand.NewSource(0)),
	}
}

// run is Algorithm 2 for one target, with seed the source of all its
// randomness.
//
// Cost. Θ = θ_S + θ_i is loaded into the model once — the target's one
// pass over all of |θ|. After that a helper costs its mini-batches plus
// the lookahead algebra on what they moved: every dense tensor, and of
// each embedding table the rows the two passes gathered (the Stepper's
// Moved report). Every other row still holds θ_S + θ_i, its endpoint
// equals its start, and Eq. 8 adds γ·0 to it, so leaving it alone is the
// same update — with one visible difference: a θ_i entry that is -0.0
// (reachable only by loading one; training never produces it) stays
// -0.0 where -0.0 + γ·0 wrote +0.0. Under an inner optimizer that moves
// rows on zero gradient (Adam) every entry counts as moved and
// the same algebra runs over all of |θ| per helper. Nothing of size |θ|
// is allocated: the inner optimizer is the worker's, Reset per helper,
// which is float for float a fresh one.
func (w *drWorker) run(ctx context.Context, st *State, ds *data.Dataset, target int, cfg framework.Config, opts DROptions, seed int64) {
	rng, params := w.rng, w.params
	rng.Seed(seed)
	models.SeedMasks(w.model, rng.Int63())
	helpers := SampleHelpers(ds.NumDomains(), target, cfg.SampleK, rng)

	ctx, drSpan := trace.Start(ctx, "dr.target",
		trace.A("target", ds.Domains[target].Name), trace.A("helpers", len(helpers)), trace.A("worker", w.id))
	defer drSpan.End()

	// θ̃_i ← θ_i, in composed coordinates Θ = θ_S + θ_i.
	shared, specific := st.Shared, st.Specific[target]
	for i, p := range params {
		kernels.AddTo(p.Data, shared[i], specific[i])
	}
	// No ZeroGrad: nothing here reads a gradient buffer densely, and a
	// step clears the rows it accumulates into.
	step := framework.NewStepper(w.model)
	for _, j := range helpers {
		laCtx, laSpan := trace.Start(ctx, "dr.lookahead",
			trace.A("helper", ds.Domains[j].Name))
		w.inner.Reset()
		// Update on helper domain j, then on the target domain i.
		first, second := j, target
		if opts.ReverseOrder {
			first, second = target, j
		}
		step.ResetMoved()
		step.Pass(laCtx, ds, first, w.inner, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
		if !opts.SkipTargetStep {
			loss := step.Pass(laCtx, ds, second, w.inner, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
			cfg.Telemetry.ObserveDRPass(target, loss)
		}
		laSpan.End()

		// θ_i ← θ_i + γ(θ̃_i − θ_i), then θ̃_i ← θ_i for the next helper,
		// wherever the lookahead moved.
		moved, all := step.Moved()
		for i, p := range params {
			if !all && len(moved) > 0 && moved[0].Param == i {
				for _, r := range moved[0].Rows {
					lo, hi := r*p.Cols, (r+1)*p.Cols
					drUpdate(specific[i][lo:hi], shared[i][lo:hi], p.Data[lo:hi], cfg.DRLR)
				}
				moved = moved[1:]
				continue
			}
			drUpdate(specific[i], shared[i], p.Data, cfg.DRLR)
		}
	}
}

// drUpdate is Eq. 8 on one run of entries, in composed coordinates: end
// holds the lookahead's endpoint Θ̃ and (shared + specific) its start, so
// the difference of endpoints is the difference of specifics. It then
// restarts the next lookahead by writing the new θ_S + θ_i over end.
// Entry for entry it is the whole-vector formula (compose, restore,
// snapshot, θ_i += γ·(endpoint − composed)) that referenceDR in the tests
// spells out.
func drUpdate(specific, shared, end []float64, gamma float64) {
	for j := range specific {
		specific[j] += gamma * (end[j] - (shared[j] + specific[j]))
		end[j] = shared[j] + specific[j]
	}
}

// SampleHelpers draws k distinct helper domains excluding the target
// (all others when k >= n-1). With a single domain it returns the target
// itself so DR degrades gracefully to per-domain finetuning.
func SampleHelpers(n, target, k int, rng *rand.Rand) []int {
	if n == 1 {
		return []int{target}
	}
	pool := make([]int, 0, n-1)
	for d := 0; d < n; d++ {
		if d != target {
			pool = append(pool, d)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if k < len(pool) {
		pool = pool[:k]
	}
	return pool
}
