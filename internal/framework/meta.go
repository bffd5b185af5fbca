package framework

import (
	"math/rand"

	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
)

func init() {
	Register("maml", func() Framework { return MAML{} })
	Register("reptile", func() Framework { return Reptile{} })
	Register("mldg", func() Framework { return MLDG{} })
}

// MAML applies first-order Model-Agnostic Meta-Learning (Finn et al.,
// 2017) to MDR by treating each domain as a task. Each domain's
// training data is split into a support and a query half: the model
// adapts to the support set with inner SGD steps, the query gradient is
// taken at the adapted parameters, and that gradient is applied at the
// original parameters (the FOMAML approximation, standard in practice).
//
// As the paper observes (Table X discussion), the support/query split
// wastes training data relative to Reptile/DN, which is why MAML
// underperforms in MDR.
type MAML struct{}

// Name implements Framework.
func (MAML) Name() string { return "MAML" }

// Fit implements Framework.
func (MAML) Fit(m models.Model, ds *data.Dataset, cfg Config) Predictor {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	inner := optim.NewSGD(cfg.LR)
	outer := optim.New(cfg.InnerOpt, cfg.LR)
	params := m.Parameters()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, d := range shuffledDomains(ds.NumDomains(), rng) {
			train := ds.Domains[d].Train
			if len(train) < 4 {
				continue
			}
			half := len(train) / 2
			support := ds.MakeBatch(d, train[:half])
			query := ds.MakeBatch(d, train[half:])

			origin := paramvec.Snapshot(params)
			// Inner adaptation on the support set.
			stepOnBatch(m, support, inner)
			// Query gradient at the adapted parameters...
			gradOnBatch(m, query)
			queryGrad := paramvec.SnapshotGrads(params)
			// ...applied at the original parameters (first-order MAML).
			// A dense Grad write and a dense step: no Stepper is alive
			// here (gradOnBatch clears every buffer itself).
			paramvec.Restore(params, origin)
			for i, p := range params {
				copy(p.Grad, queryGrad[i])
			}
			outer.Step(params)
		}
	}
	return NewModelPredictor(m)
}

// Reptile (Nichol et al., 2018) meta-learning applied to MDR: for each
// domain, run several inner steps on that domain alone, then move the
// parameters a fraction OuterLR toward the adapted endpoint. As Fig. 5
// of the paper illustrates, Reptile maximizes gradient inner products
// *within* a domain; Domain Negotiation extends the idea across domains.
type Reptile struct{}

// Name implements Framework.
func (Reptile) Name() string { return "Reptile" }

// Fit implements Framework.
func (Reptile) Fit(m models.Model, ds *data.Dataset, cfg Config) Predictor {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := m.Parameters()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, d := range shuffledDomains(ds.NumDomains(), rng) {
			origin := paramvec.Snapshot(params)
			inner := optim.New(cfg.InnerOpt, cfg.LR)
			TrainDomainPass(m, ds, d, inner, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
			endpoint := paramvec.Snapshot(params)
			paramvec.Restore(params, origin)
			paramvec.AddScaledDiffInto(params, cfg.OuterLR, endpoint, origin)
		}
	}
	return NewModelPredictor(m)
}

// MLDG is Meta-Learning Domain Generalization (Li et al., 2018) in its
// first-order form: each step splits the domains into meta-train and
// meta-test sets, takes a virtual gradient step on the meta-train loss,
// evaluates the meta-test gradient at the virtual parameters, and
// applies the combined gradient at the original point:
//
//	g = g_train + β_meta · g_test(θ - α·g_train).
type MLDG struct{}

// Name implements Framework.
func (MLDG) Name() string { return "MLDG" }

// Fit implements Framework.
func (MLDG) Fit(m models.Model, ds *data.Dataset, cfg Config) Predictor {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := optim.New(cfg.InnerOpt, cfg.LR)
	params := m.Parameters()
	n := ds.NumDomains()
	const metaBeta = 1.0

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for round := 0; round < n; round++ {
			order := rng.Perm(n)
			testDomain := order[0]
			trainDomains := order[1:]
			if len(trainDomains) == 0 {
				trainDomains = []int{testDomain}
			}

			// Meta-train gradient: average over the meta-train domains
			// (one mini-batch each).
			gTrain := accumulateDomainGrads(m, ds, trainDomains, cfg.BatchSize, rng)

			// Virtual step, then meta-test gradient at the shifted point.
			origin := paramvec.Snapshot(params)
			paramvec.AxpyInto(params, -cfg.LR, gTrain)
			DomainGradient(m, ds, testDomain, cfg.BatchSize, 1, rng)
			gTest := paramvec.SnapshotGrads(params)
			paramvec.Restore(params, origin)

			combined := gTrain.Clone()
			paramvec.Axpy(combined, metaBeta, gTest)
			// Dense Grad write, dense step; DomainGradient clears every
			// buffer before the next read.
			for i, p := range params {
				copy(p.Grad, combined[i])
			}
			opt.Step(params)
		}
	}
	return NewModelPredictor(m)
}

// accumulateDomainGrads returns the average of one-mini-batch gradients
// over the given domains.
func accumulateDomainGrads(m models.Model, ds *data.Dataset, domains []int, batchSize int, rng *rand.Rand) paramvec.Vector {
	params := m.Parameters()
	var total paramvec.Vector
	for _, d := range domains {
		DomainGradient(m, ds, d, batchSize, 1, rng)
		g := paramvec.SnapshotGrads(params)
		if total == nil {
			total = g
		} else {
			paramvec.Axpy(total, 1, g)
		}
	}
	return paramvec.Scale(total, 1/float64(len(domains)))
}

// stepOnBatch runs one optimizer step on a single batch.
func stepOnBatch(m models.Model, b *data.Batch, opt optim.Optimizer) {
	gradOnBatch(m, b)
	opt.Step(m.Parameters())
}

// gradOnBatch fills parameter gradients from one batch's loss.
func gradOnBatch(m models.Model, b *data.Batch) float64 {
	params := m.Parameters()
	for _, p := range params {
		p.ZeroGrad()
	}
	loss := autogradBCE(m, b)
	loss.Backward()
	v := loss.Item()
	loss.Release()
	return v
}
