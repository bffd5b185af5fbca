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

	// replicas of Model that the DR phases of a training run train
	// targets on beside it; Fit drops them when it returns.
	replicas []models.Model
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
			DomainRegularizationPhase(st, ds, cfg, rng, DROptions{})
		}
		if ckpt != "" && (epoch+1)%cfg.CheckpointEvery == 0 {
			if err := st.SaveTraining(ckpt, epoch+1, outer); err != nil {
				panic(fmt.Sprintf("core: checkpoint after epoch %d: %v", epoch, err))
			}
		}
	}
	paramvec.Restore(params, st.Shared)
	st.replicas = nil
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
	ctx, epochSpan := loadShared(st, ds, cfg, rng, "dn.epoch")
	defer epochSpan.End()
	order := rng.Perm(ds.NumDomains())
	if fixedOrder {
		for i := range order {
			order[i] = i
		}
	}
	rec := framework.InnerLoopEpoch(ctx, st.Model, ds, order, optim.New(cfg.InnerOpt, cfg.LR), cfg, rng, "dn", -1, nil, nil)

	// Treat -(endpoint - shared) as the outer gradient at Θ. The model
	// holds the endpoint Θ̃_{n+1}: one loop reads it into the gradient
	// and puts Θ back in its place. This fills every Grad buffer, tables
	// included (nearly every row moved during the epoch), which is why
	// the inner loop's Stepper ended with it.
	params := st.Model.Parameters()
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

// loadShared opens an epoch on the shared parameters: Θ̃_1 ← θ_S in the
// model, the epoch's dropout stream, and the epoch's span, under which
// the returned context runs.
func loadShared(st *State, ds *data.Dataset, cfg framework.Config, rng *rand.Rand, span string) (context.Context, *trace.Span) {
	paramvec.Restore(st.Model.Parameters(), st.Shared)
	// The epoch's dropout masks come from the epoch's RNG, not from
	// wherever the model's stream was left: by a DR phase, whose last
	// target on this model depends on scheduling, or by the process a
	// resumed run did not inherit.
	models.SeedMasks(st.Model, rng.Int63())
	return trace.Start(cfg.Tracer.Context(context.Background()), span, trace.A("domains", ds.NumDomains()))
}

// alternateEpoch trains the shared parameters with conventional
// alternate training (the "w/o DN" ablation and the β=1 degenerate case
// discussed in Section IV-C).
func alternateEpoch(st *State, ds *data.Dataset, cfg framework.Config, rng *rand.Rand) {
	ctx, epochSpan := loadShared(st, ds, cfg, rng, "alternate.epoch")
	defer epochSpan.End()
	order := rng.Perm(ds.NumDomains())
	framework.InnerLoopEpoch(ctx, st.Model, ds, order, optim.New(cfg.InnerOpt, cfg.LR), cfg, rng, "alternate", -1, nil, nil).Finish(-1)
	st.Shared = paramvec.Snapshot(st.Model.Parameters())
}
