package framework

import (
	"context"
	"math/rand"

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
// the parameters on each domain separately, keeping one parameter vector
// per domain (the traditional way to obtain domain-specific models).
type AlternateFinetune struct{}

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
		for e := 0; e < cfg.FinetuneEpochs; e++ {
			TrainDomainPass(m, ds, d, opt, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
		}
		perDomain[d] = paramvec.Snapshot(params)
	}
	paramvec.Restore(params, base)
	return &PerDomainPredictor{Model: m, Vectors: perDomain}
}

// PerDomainPredictor swaps a per-domain parameter vector into the model
// before scoring each batch. It is shared by every framework that keeps
// domain-specific parameter states (Finetune, DR, MAMDR).
type PerDomainPredictor struct {
	Model   models.Model
	Vectors []paramvec.Vector
}

// Predict implements Predictor.
func (p *PerDomainPredictor) Predict(b *data.Batch) []float64 {
	params := p.Model.Parameters()
	saved := paramvec.Snapshot(params)
	paramvec.Restore(params, p.Vectors[b.Domain])
	logits := p.Model.Forward(b, false)
	probs := SigmoidAll(logits)
	logits.Release()
	paramvec.Restore(params, saved)
	return probs
}
