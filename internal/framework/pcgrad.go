package framework

import (
	"math/rand"

	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
)

func init() {
	Register("pcgrad", func() Framework { return PCGrad{} })
}

// PCGrad is gradient surgery (Yu et al., 2020) adapted to MDR, as in
// Mansilla et al. (2021): each step collects one gradient per domain,
// projects every gradient onto the normal plane of each conflicting
// other gradient (in random order), and applies the sum. Its per-step
// complexity is O(n²) in the number of domains — the scalability
// limitation the paper contrasts DN's O(n) with; BenchmarkConflictScaling
// measures exactly this.
type PCGrad struct{}

// Name implements Framework.
func (PCGrad) Name() string { return "PCGrad" }

// Fit implements Framework.
func (PCGrad) Fit(m models.Model, ds *data.Dataset, cfg Config) Predictor {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := optim.New(cfg.InnerOpt, cfg.LR)
	params := m.Parameters()
	n := ds.NumDomains()

	// stepsPerEpoch keeps the sample budget comparable to one Alternate
	// epoch: each PCGrad step consumes one mini-batch from every domain.
	stepsPerEpoch := 1
	if cfg.MaxBatchesPerDomain > 0 {
		stepsPerEpoch = cfg.MaxBatchesPerDomain
	} else {
		// One full pass over the largest domain.
		for _, dom := range ds.Domains {
			if b := (len(dom.Train) + cfg.BatchSize - 1) / cfg.BatchSize; b > stepsPerEpoch {
				stepsPerEpoch = b
			}
		}
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for step := 0; step < stepsPerEpoch; step++ {
			grads := make([]paramvec.Vector, n)
			for d := 0; d < n; d++ {
				DomainGradient(m, ds, d, cfg.BatchSize, 1, rng)
				grads[d] = paramvec.SnapshotGrads(params)
			}
			projected := ProjectConflicts(grads, rng)
			// Apply the summed projected gradient through the optimizer:
			// a dense Grad write and a dense step (the sum covers every
			// domain's rows); DomainGradient clears every buffer before
			// the next read.
			total := projected[0].Clone()
			for d := 1; d < n; d++ {
				paramvec.Axpy(total, 1, projected[d])
			}
			for i, p := range params {
				copy(p.Grad, total[i])
			}
			opt.Step(params)
		}
	}
	return NewModelPredictor(m)
}

// ProjectConflicts applies PCGrad's pairwise projection: each domain's
// gradient is projected out of every conflicting other gradient's
// direction, iterating over the others in a random order. The input
// vectors are not modified.
func ProjectConflicts(grads []paramvec.Vector, rng *rand.Rand) []paramvec.Vector {
	out := make([]paramvec.Vector, len(grads))
	for i := range grads {
		g := grads[i].Clone()
		order := rng.Perm(len(grads))
		for _, j := range order {
			if j == i {
				continue
			}
			g = paramvec.ProjectOut(g, grads[j])
		}
		out[i] = g
	}
	return out
}
