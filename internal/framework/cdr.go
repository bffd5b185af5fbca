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
	Register("cdr", func() Framework { return CDRTransfer{} })
}

// CDRTransfer adapts cross-domain recommendation to the MDR problem the
// way Section III-C describes: every domain is treated in turn as the
// target, and knowledge is transferred from *each* auxiliary domain by
// pre-training on it before finetuning on the target — O(n²) training
// passes overall. It exists as the complexity baseline the paper argues
// against: DR achieves the same kind of targeted transfer with k
// sampled helpers (O(kn)), and BenchmarkTrainEpoch/cdr shows the cost
// difference directly.
type CDRTransfer struct{}

// Name implements Framework.
func (CDRTransfer) Name() string { return "CDR-Transfer" }

// Fit implements Framework.
func (CDRTransfer) Fit(m models.Model, ds *data.Dataset, cfg Config) Predictor {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := m.Parameters()

	// A shared warm start: one alternate epoch so every target begins
	// from multi-domain features (as CDR methods assume a pretrained
	// source model).
	order := shuffledDomains(ds.NumDomains(), rng)
	InnerLoopEpoch(context.Background(), m, ds, order, optim.New(cfg.InnerOpt, cfg.LR), cfg, rng, "alternate", -1, nil, nil).Finish(-1)
	base := paramvec.Snapshot(params)

	n := ds.NumDomains()
	perDomain := make([]paramvec.Vector, n)
	for target := 0; target < n; target++ {
		// Average the endpoints of transferring from every auxiliary
		// domain — the O(n²) inner loop.
		acc := base.Zero()
		var transfers int
		for aux := 0; aux < n; aux++ {
			if aux == target && n > 1 {
				continue
			}
			paramvec.Restore(params, base)
			opt := optim.New(cfg.InnerOpt, cfg.LR)
			for e := 0; e < cfg.Epochs; e++ {
				TrainDomainPass(m, ds, aux, opt, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
				TrainDomainPass(m, ds, target, opt, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
			}
			paramvec.Axpy(acc, 1, paramvec.Snapshot(params))
			transfers++
		}
		perDomain[target] = paramvec.Scale(acc, 1/float64(transfers))
	}
	paramvec.Restore(params, base)
	return &PerDomainPredictor{Model: m, Vectors: perDomain}
}
