package core

import (
	"math"
	"math/rand"
	"testing"

	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/synth"
)

// randomState wraps m in a state whose θ_S is the model's
// initialization and whose θ_i are small random deltas — no training,
// every segment non-trivial.
func randomState(m models.Model, domains int, seed int64) *State {
	rng := rand.New(rand.NewSource(seed))
	st := &State{Model: m, Shared: paramvec.Snapshot(m.Parameters())}
	for d := 0; d < domains; d++ {
		id := st.AddDomain()
		for _, seg := range st.Specific[id] {
			for j := range seg {
				seg[j] = 0.05 * rng.NormFloat64()
			}
		}
	}
	return st
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPredictMatchesRestoreThenForward: for every model structure, in
// both feature regimes, the bound forward of State.Predict is
// bit-identical to copying θ_S + θ_i into a private model and running
// it — and leaves the state's own model exactly as it found it.
func TestPredictMatchesRestoreThenForward(t *testing.T) {
	fixed := synth.Generate(synth.Config{
		Name: "core-fixed", Seed: 35, ConflictStrength: 0.5, FixedFeatures: true,
		Domains: []synth.DomainSpec{
			{Name: "a", Samples: 120, CTRRatio: 0.3},
			{Name: "b", Samples: 80, CTRRatio: 0.4},
		},
	})
	for _, ds := range []*data.Dataset{testDataset(t, 0.5), fixed} {
		for _, name := range models.Names() {
			cfg := models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{8, 4}, Seed: 7}
			m, private := models.MustNew(name, cfg), models.MustNew(name, cfg)
			st := randomState(m, ds.NumDomains(), 11)
			params := m.Parameters()
			before := paramvec.Snapshot(params)
			headers := make([]*float64, len(params))
			for i, p := range params {
				headers[i] = &p.Data[0]
			}

			for d := 0; d < ds.NumDomains(); d++ {
				b := ds.FullBatch(d, data.Test)
				if b.Size() == 0 {
					t.Fatalf("%s domain %d has no test rows", ds.Name, d)
				}
				paramvec.Restore(private.Parameters(), st.ComposedFor(d))
				logits := private.Forward(b, false)
				want := framework.SigmoidAll(logits)
				logits.Release()
				if got := st.Predict(b); !bitsEqual(got, want) {
					t.Fatalf("%s on %s domain %d: bound Predict differs from restore-then-forward", name, ds.Name, d)
				}
			}

			for i, p := range params {
				if &p.Data[0] != headers[i] || !bitsEqual(p.Data, before[i]) {
					t.Fatalf("%s on %s: Predict left tensor %d changed (own storage must come back untouched)", name, ds.Name, i)
				}
			}
		}
	}
}

// referenceDR is the DR helper loop written out in whole vectors:
// ComposedFor, Snapshot and Sub each allocate one per helper, and every
// helper gets a fresh inner optimizer. Like DomainRegularization it takes
// one seed from the caller's RNG and draws everything else from that: the
// dropout-mask seed first, then helpers and shuffles.
func referenceDR(st *State, ds *data.Dataset, target int, cfg framework.Config, epochRNG *rand.Rand) {
	rng := rand.New(rand.NewSource(epochRNG.Int63()))
	models.SeedMasks(st.Model, rng.Int63())
	params := st.Model.Parameters()
	for _, j := range SampleHelpers(ds.NumDomains(), target, cfg.SampleK, rng) {
		composed := st.ComposedFor(target)
		paramvec.Restore(params, composed)
		inner := optim.New(cfg.InnerOpt, cfg.LR)
		framework.TrainDomainPass(st.Model, ds, j, inner, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
		framework.TrainDomainPass(st.Model, ds, target, inner, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
		endpoint := paramvec.Snapshot(params)
		paramvec.Axpy(st.Specific[target], cfg.DRLR, paramvec.Sub(endpoint, composed))
	}
}

// TestDRScratchLoopIsBitIdentical runs Algorithm 2 over every target
// with the reference loop and with DomainRegularization from the same
// state and RNG; every θ_i must agree bit for bit — under Adam, where
// DomainRegularization runs its algebra over all of |θ|, and under SGD,
// where it runs it on the rows the lookahead moved.
func TestDRScratchLoopIsBitIdentical(t *testing.T) {
	ds := testDataset(t, 0.8)
	for _, inner := range []string{"adam", "sgd"} {
		cfg := framework.Config{BatchSize: 32, Seed: 3, SampleK: 2, InnerOpt: inner}.WithDefaults()
		run := func(dr func(*State, *data.Dataset, int, framework.Config, *rand.Rand)) *State {
			st := randomState(testModel(t, ds), ds.NumDomains(), 17)
			rng := rand.New(rand.NewSource(23))
			for target := 0; target < ds.NumDomains(); target++ {
				dr(st, ds, target, cfg, rng)
			}
			return st
		}
		want, got := run(referenceDR), run(DomainRegularization)
		for d := range want.Specific {
			for i := range want.Specific[d] {
				if !bitsEqual(got.Specific[d][i], want.Specific[d][i]) {
					t.Fatalf("%s: θ_%d segment %d differs from the three-allocation formula", inner, d, i)
				}
			}
		}
	}
}
