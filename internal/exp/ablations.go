package exp

import (
	"fmt"
	"math/rand"
	"time"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/ps"
	"mamdr/internal/synth"
)

// The experiments below go beyond the paper's tables: they benchmark the
// design choices DESIGN.md calls out (DN's shuffled order, DR's fixed
// order and target step, the embedding cache, and DN's O(n) vs PCGrad's
// O(n²) conflict handling).

// AblationDNOrder compares DN with the per-epoch domain shuffle
// (Algorithm 1 line 3) against a fixed visiting order.
func AblationDNOrder(s *Session) *Table {
	ds := s.dataset("taobao-10")
	cfg := s.arm("taobao-10", "mlp", "dn").config()

	run := func(fixed bool, seed int64) float64 {
		m := models.MustNew("mlp", modelConfig(ds, seed))
		params := m.Parameters()
		st := &core.State{Model: m, Shared: paramvec.Snapshot(params)}
		for range ds.Domains {
			st.AddDomain()
		}
		rng := rand.New(rand.NewSource(seed))
		outer := optim.New(cfg.OuterOpt, cfg.OuterLR)
		for e := 0; e < cfg.Epochs; e++ {
			core.DomainNegotiationEpochOpt(st, ds, cfg, outer, rng, fixed)
		}
		paramvec.Restore(params, st.Shared)
		return metrics.Mean(framework.EvaluateAUC(st, ds, data.Test))
	}
	avg := func(fixed bool) float64 {
		var sum float64
		for _, seed := range []int64{s.Seed, s.Seed + 1, s.Seed + 2, s.Seed + 3, s.Seed + 4} {
			sum += run(fixed, seed)
		}
		return sum / 5
	}

	t := &Table{
		ID:     "Ablation DN-Order",
		Title:  "DN with shuffled vs fixed domain order (Taobao-10, avg AUC, mean of 5 seeds)",
		Header: []string{"Variant", "AUC"},
		Notes:  []string{"The Section IV-C symmetrization (Eq. 19-21) requires the shuffle."},
	}
	t.Rows = append(t.Rows, []string{"shuffled (paper)", f4(avg(false))})
	t.Rows = append(t.Rows, []string{"fixed order", f4(avg(true))})
	return t
}

// AblationDROrder compares Algorithm 2 against two broken variants:
// skipping the target regularization step (Eq. 7) and reversing the
// helper/target order.
func AblationDROrder(s *Session) *Table {
	ds := s.dataset("taobao-10")
	cfg := s.arm("taobao-10", "mlp", "dr").config()

	run := func(opts core.DROptions, seed int64) float64 {
		m := models.MustNew("mlp", modelConfig(ds, seed))
		params := m.Parameters()
		// Shared parameters from alternate training, as in the DR-only
		// variant, so the comparison isolates the DR design.
		seedCfg := cfg
		seedCfg.Seed = seed
		framework.MustNew("alternate").Fit(m, ds, seedCfg)
		st := &core.State{Model: m, Shared: paramvec.Snapshot(params)}
		for range ds.Domains {
			st.AddDomain()
		}
		rng := rand.New(rand.NewSource(seed))
		for e := 0; e < 2; e++ {
			core.DomainRegularizationPhase(st, ds, seedCfg, rng, opts)
		}
		return metrics.Mean(framework.EvaluateAUC(st, ds, data.Test))
	}
	avg := func(opts core.DROptions) float64 {
		var sum float64
		for _, seed := range []int64{s.Seed, s.Seed + 1, s.Seed + 2, s.Seed + 3, s.Seed + 4} {
			sum += run(opts, seed)
		}
		return sum / 5
	}

	t := &Table{
		ID:     "Ablation DR-Order",
		Title:  "DR design ablation (Taobao-10, avg AUC, mean of 5 seeds)",
		Header: []string{"Variant", "AUC"},
	}
	t.Rows = append(t.Rows, []string{"helper→target (paper)", f4(avg(core.DROptions{}))})
	t.Rows = append(t.Rows, []string{"target→helper (reversed)", f4(avg(core.DROptions{ReverseOrder: true}))})
	t.Rows = append(t.Rows, []string{"helper only (no Eq. 7 step)", f4(avg(core.DROptions{SkipTargetStep: true}))})
	return t
}

// AblationCache measures the PS-Worker embedding cache's effect on
// synchronization traffic and final quality.
func AblationCache(s *Session) *Table {
	ds := s.dataset("amazon-6")
	replica := func() models.Model {
		return models.MustNew("mlp", modelConfig(ds, s.Seed))
	}
	// The cache-enabled arm applies its pushes in worker order (SyncPush),
	// so its AUC reproduces; the cache-off protocol cannot defer pushes.
	run := func(cache bool) (float64, ps.Counters) {
		res := ps.Train(replica, ds, ps.Options{
			Workers: 4, Epochs: s.Epochs, Seed: s.Seed, CacheEnabled: cache,
			BatchSize: s.BatchSize, SyncPush: cache,
		})
		return metrics.Mean(framework.EvaluateAUC(res.State, ds, data.Test)), res.Counters
	}

	t := &Table{
		ID:     "Ablation PS-Cache",
		Title:  "Embedding PS-Worker cache: sync overhead and quality (Amazon-6, 4 workers)",
		Header: []string{"Variant", "AUC", "Floats moved", "Row pulls", "Pushes"},
	}
	aucOn, cOn := run(true)
	aucOff, cOff := run(false)
	t.Rows = append(t.Rows, []string{"cache enabled (paper)", f4(aucOn),
		fmt.Sprintf("%d", cOn.FloatsMoved), fmt.Sprintf("%d", cOn.RowPulls), fmt.Sprintf("%d", cOn.DensePushes)})
	t.Rows = append(t.Rows, []string{"cache disabled", f4(aucOff),
		fmt.Sprintf("%d", cOff.FloatsMoved), fmt.Sprintf("%d", cOff.RowPulls), fmt.Sprintf("%d", cOff.DensePushes)})
	if cOff.FloatsMoved > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("Cache reduces synchronization traffic by %.1fx.",
			float64(cOff.FloatsMoved)/float64(cOn.FloatsMoved)))
	}
	return t
}

// ConflictScaling measures one training epoch's wall time for PCGrad
// (O(n²) pairwise projections) versus DN (O(n)) as the domain count
// grows — the scalability argument of Section III-C.
func ConflictScaling(s *Session) *Table {
	t := &Table{
		ID:     "Conflict Scaling",
		Title:  "Wall time of one epoch: PCGrad O(n²) vs DN O(n)",
		Header: []string{"#Domains", "PCGrad", "DN", "Ratio"},
	}
	for _, n := range []int{5, 10, 20, 30} {
		specs := make([]synth.DomainSpec, n)
		for i := range specs {
			specs[i] = synth.DomainSpec{Name: fmt.Sprintf("d%d", i), Samples: 200, CTRRatio: 0.3}
		}
		ds := synth.Generate(synth.Config{Name: fmt.Sprintf("scale-%d", n), Seed: s.Seed, ConflictStrength: 1, Domains: specs})
		cfg := s.arm("", "mlp", "pcgrad").config()
		cfg.Epochs = 1
		cfg.MaxBatchesPerDomain = 2

		time1 := timeFit("pcgrad", ds, s.Seed, cfg)
		time2 := timeFit("dn", ds, s.Seed, cfg)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), time1.Round(time.Millisecond).String(),
			time2.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", float64(time1)/float64(time2)),
		})
	}
	return t
}

func timeFit(fwKey string, ds *data.Dataset, seed int64, cfg framework.Config) time.Duration {
	m := models.MustNew("mlp", modelConfig(ds, seed))
	start := time.Now()
	framework.MustNew(fwKey).Fit(m, ds, cfg)
	return time.Since(start)
}

// GradientConflictDiagnostic quantifies domain conflict before and after
// DN training: the mean pairwise cosine similarity of per-domain
// gradients at the shared parameters. DN should increase it (Eq. 9).
func GradientConflictDiagnostic(s *Session) *Table {
	ds := s.dataset("taobao-10")
	cfg := s.arm("taobao-10", "mlp", "dn").config()

	measure := func(m models.Model) float64 {
		rng := rand.New(rand.NewSource(s.Seed))
		params := m.Parameters()
		grads := make([]paramvec.Vector, ds.NumDomains())
		for d := range ds.Domains {
			framework.DomainGradient(m, ds, d, cfg.BatchSize, 4, rng)
			grads[d] = paramvec.SnapshotGrads(params)
		}
		var total float64
		var pairs int
		for i := range grads {
			for j := i + 1; j < len(grads); j++ {
				total += paramvec.CosineSimilarity(grads[i], grads[j])
				pairs++
			}
		}
		return total / float64(pairs)
	}

	before := models.MustNew("mlp", modelConfig(ds, s.Seed))
	initCos := measure(before)

	alt := models.MustNew("mlp", modelConfig(ds, s.Seed))
	framework.MustNew("alternate").Fit(alt, ds, cfg)
	altCos := measure(alt)

	dn := models.MustNew("mlp", modelConfig(ds, s.Seed))
	framework.MustNew("dn").Fit(dn, ds, cfg)
	dnCos := measure(dn)

	t := &Table{
		ID:     "Conflict Diagnostic",
		Title:  "Mean pairwise cosine similarity of per-domain gradients (Taobao-10)",
		Header: []string{"Parameters", "Mean cosine"},
		Notes:  []string{"DN maximizes cross-domain gradient inner products (Eq. 9); higher is less conflict."},
	}
	t.Rows = append(t.Rows, []string{"random init", f4(initCos)})
	t.Rows = append(t.Rows, []string{"after Alternate", f4(altCos)})
	t.Rows = append(t.Rows, []string{"after DN", f4(dnCos)})
	return t
}
