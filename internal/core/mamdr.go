// Package core implements the MAMDR paper's primary contribution: the
// Domain Negotiation (DN) and Domain Regularization (DR) strategies and
// the unified MAMDR learning framework (Algorithms 1-3).
//
// MAMDR maintains a shared parameter vector θ_S and one specific vector
// θ_i per domain; the model serves domain i with Θ = θ_S + θ_i (Eq. 4).
// DN optimizes θ_S with a two-loop schedule whose outer update
// Θ ← Θ + β(Θ̃_{n+1} − Θ) implicitly maximizes cross-domain gradient
// inner products (Section IV-C), mitigating domain conflict in O(n).
// DR optimizes each θ_i with a fixed-order lookahead through a sampled
// helper domain followed by the target domain, extracting only helpful
// cross-domain information and fighting overfitting on sparse domains.
//
// Everything here manipulates models exclusively through Forward and
// Parameters — the framework is agnostic to the model structure.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"mamdr/internal/autograd/kernels"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/trace"
)

func init() {
	framework.Register("dn", func() framework.Framework {
		return &MAMDR{UseDN: true}
	})
	framework.Register("dr", func() framework.Framework {
		return &MAMDR{UseDR: true}
	})
	framework.Register("mamdr", func() framework.Framework {
		return &MAMDR{UseDN: true, UseDR: true}
	})
}

// MAMDR is the unified learning framework (Algorithm 3). The UseDN and
// UseDR switches select the paper's ablations:
//
//   - UseDN && UseDR — full MAMDR;
//   - UseDN only     — "w/o DR": Domain Negotiation for the shared
//     parameters, no specific parameters;
//   - UseDR only     — "w/o DN": the shared parameters fall back to
//     Alternate training, the specific parameters still use DR;
//   - neither        — "w/o DN+DR": plain Alternate training.
type MAMDR struct {
	UseDN bool
	UseDR bool
}

// Name implements framework.Framework.
func (t *MAMDR) Name() string {
	switch {
	case t.UseDN && t.UseDR:
		return "MAMDR (DN+DR)"
	case t.UseDN:
		return "DN"
	case t.UseDR:
		return "DR"
	default:
		return "Alternate"
	}
}

// State is the trained MAMDR parameter state: the shared vector and one
// specific delta per domain. It doubles as the serving-time predictor.
type State struct {
	Model    models.Model
	Shared   paramvec.Vector
	Specific []paramvec.Vector
}

// ComposedFor returns θ_S + θ_i, the serving parameters of domain i
// (Eq. 4).
func (s *State) ComposedFor(domain int) paramvec.Vector {
	return paramvec.Sum(s.Shared, s.Specific[domain])
}

// Predict implements framework.Predictor: it serves each batch with the
// parameters composed for the batch's domain, bound to the model by
// reference (dense segments summed, embedding rows composed as the
// lookup gathers them) and unbound again before returning — the model's
// own parameters are neither read nor written.
func (s *State) Predict(b *data.Batch) []float64 {
	params := s.Model.Parameters()
	binding := paramvec.NewBinding(params)
	binding.Bind(paramvec.SumBound(params, models.EmbeddingTablesOf(s.Model), s.Shared, s.Specific[b.Domain]))
	defer binding.Unbind()
	logits := s.Model.Forward(b, false)
	probs := framework.SigmoidAll(logits)
	logits.Release()
	return probs
}

// AddDomain appends a zero-initialized specific vector for a newly
// registered domain, mirroring the platform's "new domains only add
// specific parameters" property.
func (s *State) AddDomain() int {
	s.Specific = append(s.Specific, s.Shared.Zero())
	return len(s.Specific) - 1
}

// Fit implements framework.Framework (Algorithm 3): every epoch first
// updates θ_S with DN (Algorithm 1), then updates every θ_i with DR
// (Algorithm 2).
//
// Each epoch's randomness is derived from (Seed, epoch) rather than one
// RNG streamed across epochs, so a run killed and resumed from an
// epoch-boundary checkpoint (Config.CheckpointDir/Resume) replays the
// remaining epochs bit-identically to an uninterrupted run.
func (t *MAMDR) Fit(m models.Model, ds *data.Dataset, cfg framework.Config) framework.Predictor {
	cfg = cfg.WithDefaults()
	params := m.Parameters()

	st := &State{
		Model:  m,
		Shared: paramvec.Snapshot(params),
	}
	for range ds.Domains {
		st.AddDomain()
	}

	outer := optim.New(cfg.OuterOpt, cfg.OuterLR)

	ckpt := ""
	startEpoch := 0
	if cfg.CheckpointDir != "" {
		ckpt = filepath.Join(cfg.CheckpointDir, "mamdr.ckpt")
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = 1
		}
		if cfg.Resume {
			if _, err := os.Stat(ckpt); err == nil {
				epoch, err := st.LoadTraining(ckpt, outer)
				if err != nil {
					panic(fmt.Sprintf("core: resume from %s: %v", ckpt, err))
				}
				if epoch > 0 {
					startEpoch = epoch
				}
			}
		}
	}

	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		rng := EpochRNG(cfg.Seed, epoch)
		if t.UseDN {
			DomainNegotiationEpoch(st, ds, cfg, outer, rng)
		} else {
			alternateEpoch(st, ds, cfg, rng)
		}
		if t.UseDR {
			for i := range ds.Domains {
				DomainRegularization(st, ds, i, cfg, rng)
			}
		}
		if ckpt != "" && (epoch+1)%cfg.CheckpointEvery == 0 {
			if err := st.SaveTraining(ckpt, epoch+1, outer); err != nil {
				panic(fmt.Sprintf("core: checkpoint after epoch %d: %v", epoch, err))
			}
		}
	}
	paramvec.Restore(params, st.Shared)
	return st
}

// EpochRNG derives the RNG for one training epoch from the run seed.
// Deriving per epoch (instead of streaming one RNG across epochs) is
// what lets a resumed run replay epoch k's shuffles and batch orders
// without having consumed epochs 0..k-1 first.
func EpochRNG(seed int64, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed + 2654435761*int64(epoch)))
}

// DomainNegotiationEpoch runs one outer-loop iteration of Algorithm 1 on
// the shared parameters: Θ̃_1 ← Θ; sequential inner-loop training over
// all domains in random order; outer update Θ ← Θ + β(Θ̃_{n+1} − Θ).
//
// The outer update is expressed as a gradient −(Θ̃_{n+1} − Θ) fed to the
// outer optimizer, so the inner and outer loops can use independently
// chosen optimizers (SGD inside + Adagrad outside in the paper's
// industrial configuration). With plain SGD outside, the step is exactly
// Eq. 3 with β = the outer optimizer's learning rate.
func DomainNegotiationEpoch(st *State, ds *data.Dataset, cfg framework.Config, outer optim.Optimizer, rng *rand.Rand) {
	DomainNegotiationEpochOpt(st, ds, cfg, outer, rng, false)
}

// DomainNegotiationEpochOpt is DomainNegotiationEpoch with an ablation
// switch: fixedOrder visits domains in id order every epoch instead of
// reshuffling. The Section IV-C symmetrization argument (Eq. 19-21)
// requires the shuffle, so fixed order is expected to negotiate worse —
// BenchmarkDNOrderAblation measures the gap.
func DomainNegotiationEpochOpt(st *State, ds *data.Dataset, cfg framework.Config, outer optim.Optimizer, rng *rand.Rand, fixedOrder bool) {
	params := st.Model.Parameters()
	paramvec.Restore(params, st.Shared)

	order := rng.Perm(ds.NumDomains())
	if fixedOrder {
		for i := range order {
			order[i] = i
		}
	}
	ctx := cfg.Tracer.Context(context.Background())
	ctx, epochSpan := trace.Start(ctx, "dn.epoch", trace.A("domains", ds.NumDomains()))
	defer epochSpan.End()

	rec := cfg.Telemetry.NewEpochRecorder(params, -1)
	inner := optim.New(cfg.InnerOpt, cfg.LR)
	// One Stepper for the epoch: its full ZeroGrad is paid here, once,
	// and the recorder's grad-norm reads one batch's gradient after every
	// pass.
	step := framework.NewStepper(st.Model)
	step.ZeroGrad()
	for _, d := range order {
		stepCtx, stepSpan := trace.Start(ctx, "dn.inner_step",
			trace.A("domain", ds.Domains[d].Name))
		rec.BeforePass()
		loss := step.Pass(stepCtx, ds, d, inner, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
		stepSpan.EndWith(trace.A("loss", loss))
		rec.AfterPassTC(d, loss, stepSpan.Context())
	}

	// Treat -(endpoint - shared) as the outer gradient at Θ. The model
	// holds the endpoint Θ̃_{n+1}: one loop reads it into the gradient
	// and puts Θ back in its place. This fills every Grad buffer, tables
	// included (nearly every row moved during the epoch), so the epoch's
	// Stepper ends here.
	outerStart := time.Now()
	_, outerSpan := trace.Start(ctx, "dn.outer_step")
	for i, p := range params {
		shared := st.Shared[i]
		for j, end := range p.Data {
			p.Grad[j] = shared[j] - end
			p.Data[j] = shared[j]
		}
	}
	outer.Step(params)
	st.Shared = paramvec.Snapshot(params)
	outerSpan.End()
	rec.Finish(time.Since(outerStart).Seconds())
}

// alternateEpoch trains the shared parameters with conventional
// alternate training (the "w/o DN" ablation and the β=1 degenerate case
// discussed in Section IV-C).
func alternateEpoch(st *State, ds *data.Dataset, cfg framework.Config, rng *rand.Rand) {
	params := st.Model.Parameters()
	paramvec.Restore(params, st.Shared)
	ctx := cfg.Tracer.Context(context.Background())
	ctx, epochSpan := trace.Start(ctx, "alternate.epoch", trace.A("domains", ds.NumDomains()))
	defer epochSpan.End()

	rec := cfg.Telemetry.NewEpochRecorder(params, -1)
	inner := optim.New(cfg.InnerOpt, cfg.LR)
	step := framework.NewStepper(st.Model)
	step.ZeroGrad()
	for _, d := range rng.Perm(ds.NumDomains()) {
		stepCtx, stepSpan := trace.Start(ctx, "alternate.inner_step",
			trace.A("domain", ds.Domains[d].Name))
		rec.BeforePass()
		loss := step.Pass(stepCtx, ds, d, inner, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
		stepSpan.EndWith(trace.A("loss", loss))
		rec.AfterPassTC(d, loss, stepSpan.Context())
	}
	st.Shared = paramvec.Snapshot(params)
	rec.Finish(-1)
}

// DomainRegularization runs Algorithm 2 for one target domain i: sample
// k helper domains; for each helper j, start from θ_i, take inner steps
// on T_j, then on T_i (the fixed order that regularizes domain-j
// information toward the target), and move θ_i toward the endpoint with
// learning rate γ (Eq. 8). Updates run in the composed space
// Θ = θ_S + θ_i with θ_S held fixed.
func DomainRegularization(st *State, ds *data.Dataset, target int, cfg framework.Config, rng *rand.Rand) {
	DomainRegularizationOpt(st, ds, target, cfg, rng, DROptions{})
}

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

// DomainRegularizationOpt is DomainRegularization with explicit ablation
// options.
//
// Cost. Θ = θ_S + θ_i is loaded into the model once — the call's one
// pass over all of |θ|. After that a helper costs its mini-batches plus
// the lookahead algebra on what they moved: every dense tensor, and of
// each embedding table the rows the two passes gathered (the Stepper's
// Moved report). Every other row still holds θ_S + θ_i, its endpoint
// equals its start, and Eq. 8 adds γ·0 to it, so leaving it alone is the
// same update — with one visible difference: a θ_i entry that is -0.0
// (reachable only by loading one; training never produces it) stays
// -0.0 where -0.0 + γ·0 wrote +0.0. Under an inner optimizer that moves
// rows on zero gradient (Adam, momentum) every entry counts as moved and
// the same algebra runs over all of |θ| per helper. Nothing of size |θ|
// is allocated.
func DomainRegularizationOpt(st *State, ds *data.Dataset, target int, cfg framework.Config, rng *rand.Rand, opts DROptions) {
	params := st.Model.Parameters()
	helpers := SampleHelpers(ds.NumDomains(), target, cfg.SampleK, rng)

	ctx := cfg.Tracer.Context(context.Background())
	ctx, drSpan := trace.Start(ctx, "dr.target",
		trace.A("target", ds.Domains[target].Name), trace.A("helpers", len(helpers)))
	defer drSpan.End()

	// θ̃_i ← θ_i, in composed coordinates Θ = θ_S + θ_i.
	shared, specific := st.Shared, st.Specific[target]
	for i, p := range params {
		kernels.AddTo(p.Data, shared[i], specific[i])
	}
	// No ZeroGrad: nothing here reads a gradient buffer densely, and a
	// step clears the rows it accumulates into.
	step := framework.NewStepper(st.Model)
	for _, j := range helpers {
		laCtx, laSpan := trace.Start(ctx, "dr.lookahead",
			trace.A("helper", ds.Domains[j].Name))
		inner := optim.New(cfg.InnerOpt, cfg.LR)
		// Update on helper domain j, then on the target domain i.
		first, second := j, target
		if opts.ReverseOrder {
			first, second = target, j
		}
		step.ResetMoved()
		step.Pass(laCtx, ds, first, inner, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
		if !opts.SkipTargetStep {
			loss := step.Pass(laCtx, ds, second, inner, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
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
