package framework

import (
	"context"
	"math/rand"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
)

func init() {
	Register("alternate", func() Framework { return Alternate{} })
	Register("finetune", func() Framework { return AlternateFinetune{} })
}

// Alternate is conventional alternate (one-by-one) training: every
// epoch visits each domain in a shuffled order and runs mini-batch
// gradient steps directly on the shared parameters. It is the paper's
// baseline training scheme — and the scheme DN degrades to when β=1.
type Alternate struct{}

// Name implements Framework.
func (Alternate) Name() string { return "Alternate" }

// Fit implements Framework.
func (Alternate) Fit(m models.Model, ds *data.Dataset, cfg Config) Predictor {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := optim.New(cfg.InnerOpt, cfg.LR)
	// One inner optimizer for the whole fit, its state (Adam's moments)
	// carried across epochs — core's epochs and the PS worker's start a
	// fresh one every epoch.
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := shuffledDomains(ds.NumDomains(), rng)
		InnerLoopEpoch(context.Background(), m, ds, order, opt, cfg, rng, "alternate", -1, nil, nil).Finish(-1)
	}
	return NewModelPredictor(m)
}

// AlternateFinetune runs Alternate training and then finetunes a copy of
// the parameters on each domain separately, finetuneEpochs passes each,
// keeping one parameter vector per domain (the traditional way to obtain
// domain-specific models).
type AlternateFinetune struct{}

const finetuneEpochs = 3

// Name implements Framework.
func (AlternateFinetune) Name() string { return "Alternate+Finetune" }

// Fit implements Framework.
func (AlternateFinetune) Fit(m models.Model, ds *data.Dataset, cfg Config) Predictor {
	cfg = cfg.WithDefaults()
	Alternate{}.Fit(m, ds, cfg)

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	params := m.Parameters()
	base := paramvec.Snapshot(params)
	perDomain := make([]paramvec.Vector, ds.NumDomains())
	for d := range ds.Domains {
		paramvec.Restore(params, base)
		opt := optim.New(cfg.InnerOpt, cfg.LR)
		for e := 0; e < finetuneEpochs; e++ {
			TrainDomainPass(m, ds, d, opt, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
		}
		perDomain[d] = paramvec.Snapshot(params)
	}
	paramvec.Restore(params, base)
	return &PerDomainPredictor{Model: m, Vectors: perDomain}
}

// PerDomainPredictor binds the model to a per-domain parameter vector
// while it scores each batch, copying nothing. It is shared by the
// frameworks that keep one whole parameter state per domain (Finetune,
// Separate, CDR); DR and MAMDR serve θ_S + θ_i through core.State.
type PerDomainPredictor struct {
	Model   models.Model
	Vectors []paramvec.Vector
}

// Predict implements Predictor.
func (p *PerDomainPredictor) Predict(b *data.Batch) []float64 {
	return PredictWith(p.Model, p.Vectors[b.Domain], b)
}

// PredictWith scores b with m bound to the parameter vector v, which it
// neither copies nor writes; m's own parameters are untouched.
func PredictWith(m models.Model, v paramvec.Vector, b *data.Batch) []float64 {
	params := m.Parameters()
	binding := paramvec.NewBinding(params)
	binding.Bind(paramvec.Bound{Dense: v, Rows: make([]autograd.RowSource, len(params))})
	defer binding.Unbind()
	logits := m.Forward(b, false)
	probs := SigmoidAll(logits)
	logits.Release()
	return probs
}
