package framework

import (
	"math"
	"math/rand"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/synth"
)

func testDataset(t testing.TB) *data.Dataset {
	t.Helper()
	return synth.Generate(synth.Config{
		Name: "fw-test", Seed: 21, ConflictStrength: 0.7,
		Domains: []synth.DomainSpec{
			{Name: "a", Samples: 400, CTRRatio: 0.3},
			{Name: "b", Samples: 300, CTRRatio: 0.4},
			{Name: "c", Samples: 100, CTRRatio: 0.25},
		},
	})
}

func testModel(t testing.TB, ds *data.Dataset) models.Model {
	t.Helper()
	return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Seed: 5})
}

var baselineKeys = []string{"alternate", "finetune", "weighted", "pcgrad", "maml", "reptile", "mldg"}

func TestRegistryHasBaselines(t *testing.T) {
	for _, k := range baselineKeys {
		if _, err := New(k); err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("sorcery"); err == nil {
		t.Fatal("expected error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew("sorcery")
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Epochs == 0 || c.BatchSize == 0 || c.LR == 0 || c.OuterLR == 0 ||
		c.DRLR == 0 || c.SampleK == 0 || c.InnerOpt == "" || c.OuterOpt == "" {
		t.Fatalf("defaults not filled: %+v", c)
	}
	c2 := Config{Epochs: 3, LR: 0.5}.WithDefaults()
	if c2.Epochs != 3 || c2.LR != 0.5 {
		t.Fatal("explicit values overwritten")
	}
}

// TestAllBaselinesBeatChance trains the MLP under each baseline
// framework and requires test AUC meaningfully above 0.5.
func TestAllBaselinesBeatChance(t *testing.T) {
	ds := testDataset(t)
	for _, key := range baselineKeys {
		fw := MustNew(key)
		m := testModel(t, ds)
		pred := fw.Fit(m, ds, Config{Epochs: 6, BatchSize: 32, Seed: 9})
		auc := MeanAUC(pred, ds, data.Test)
		if auc < 0.55 {
			t.Fatalf("%s: test AUC %.4f, want > 0.55", fw.Name(), auc)
		}
	}
}

func TestFrameworkNames(t *testing.T) {
	want := map[string]string{
		"alternate": "Alternate",
		"finetune":  "Alternate+Finetune",
		"weighted":  "Weighted Loss",
		"pcgrad":    "PCGrad",
		"maml":      "MAML",
		"reptile":   "Reptile",
		"mldg":      "MLDG",
	}
	for key, name := range want {
		if got := MustNew(key).Name(); got != name {
			t.Fatalf("%s.Name() = %q, want %q", key, got, name)
		}
	}
}

func TestTrainDomainPassReducesLoss(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	rng := rand.New(rand.NewSource(1))
	opt := optim.NewAdam(0.01)
	first := TrainDomainPass(m, ds, 0, opt, 32, 0, rng)
	var last float64
	for i := 0; i < 10; i++ {
		last = TrainDomainPass(m, ds, 0, opt, 32, 0, rng)
	}
	if !(last < first) {
		t.Fatalf("loss did not drop: %.4f -> %.4f", first, last)
	}
}

func TestTrainDomainPassRespectsMaxBatches(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	params := m.Parameters()
	before := paramvec.Snapshot(params)
	TrainDomainPass(m, ds, 0, optim.NewSGD(0.1), 16, 1, rand.New(rand.NewSource(1)))
	after := paramvec.Snapshot(params)
	if paramvec.Norm(paramvec.Sub(after, before)) == 0 {
		t.Fatal("no update applied")
	}
}

func TestDomainGradientLeavesParamsUntouched(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	params := m.Parameters()
	before := paramvec.Snapshot(params)
	loss := DomainGradient(m, ds, 1, 32, 0, rand.New(rand.NewSource(2)))
	after := paramvec.Snapshot(params)
	if paramvec.Norm(paramvec.Sub(after, before)) != 0 {
		t.Fatal("DomainGradient modified parameters")
	}
	if loss <= 0 {
		t.Fatalf("loss = %g, want > 0", loss)
	}
	grads := paramvec.SnapshotGrads(params)
	if paramvec.Norm(grads) == 0 {
		t.Fatal("DomainGradient produced zero gradient")
	}
}

func TestSigmoidAllRange(t *testing.T) {
	logits := autograd.New(1, 3, []float64{-100, 0, 100})
	probs := SigmoidAll(logits)
	if probs[0] > 1e-6 || math.Abs(probs[1]-0.5) > 1e-12 || probs[2] < 1-1e-6 {
		t.Fatalf("SigmoidAll = %v", probs)
	}
}

func TestPerDomainPredictorRestoresParams(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	params := m.Parameters()
	base := paramvec.Snapshot(params)
	vecs := make([]paramvec.Vector, ds.NumDomains())
	for d := range vecs {
		v := base.Clone()
		paramvec.Axpy(v, 0.1*float64(d+1), base)
		vecs[d] = v
	}
	p := &PerDomainPredictor{Model: m, Vectors: vecs}
	b := ds.FullBatch(1, data.Test)
	_ = p.Predict(b)
	after := paramvec.Snapshot(params)
	if paramvec.Norm(paramvec.Sub(after, base)) != 0 {
		t.Fatal("Predict leaked per-domain parameters into the model")
	}
}

func TestPerDomainPredictorUsesDomainVector(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	params := m.Parameters()
	base := paramvec.Snapshot(params)
	// Domain 0 keeps base parameters; domain 1 gets strongly scaled ones.
	big := paramvec.Scale(base, 5)
	p := &PerDomainPredictor{Model: m, Vectors: []paramvec.Vector{base, big, base}}
	b0 := ds.FullBatch(0, data.Test)
	b1 := *b0
	b1.Domain = 1
	probs0 := p.Predict(b0)
	probs1 := p.Predict(&b1)
	var diff float64
	for i := range probs0 {
		diff += math.Abs(probs0[i] - probs1[i])
	}
	if diff == 0 {
		t.Fatal("per-domain vectors had no effect on predictions")
	}
}

func TestProjectConflictsRemovesPairwiseConflict(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g1 := paramvec.Vector{{1, 0}}
	g2 := paramvec.Vector{{-1, 0.5}}
	out := ProjectConflicts([]paramvec.Vector{g1, g2}, rng)
	if paramvec.Dot(out[0], g2) < -1e-9 {
		t.Fatal("g1 still conflicts with g2")
	}
	if paramvec.Dot(out[1], g1) < -1e-9 {
		t.Fatal("g2 still conflicts with g1")
	}
}

func TestProjectConflictsKeepsNonConflicting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g1 := paramvec.Vector{{1, 0}}
	g2 := paramvec.Vector{{0.5, 0.5}}
	out := ProjectConflicts([]paramvec.Vector{g1, g2}, rng)
	if out[0][0][0] != 1 || out[0][0][1] != 0 {
		t.Fatal("non-conflicting gradient was modified")
	}
}

func TestEvaluateAUCShape(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	aucs := EvaluateAUC(NewModelPredictor(m), ds, data.Val)
	if len(aucs) != ds.NumDomains() {
		t.Fatalf("per-domain AUC count = %d, want %d", len(aucs), ds.NumDomains())
	}
	for _, a := range aucs {
		if a < 0 || a > 1 {
			t.Fatalf("AUC %g out of range", a)
		}
	}
}

func TestFinetunePredictorIsPerDomain(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	pred := MustNew("finetune").Fit(m, ds, Config{Epochs: 2, BatchSize: 32, Seed: 9})
	if _, ok := pred.(*PerDomainPredictor); !ok {
		t.Fatalf("finetune returned %T, want *PerDomainPredictor", pred)
	}
}

func TestDeterministicFitWithSameSeed(t *testing.T) {
	ds := testDataset(t)
	run := func() []float64 {
		m := testModel(t, ds)
		pred := MustNew("alternate").Fit(m, ds, Config{Epochs: 2, BatchSize: 32, Seed: 77})
		return EvaluateAUC(pred, ds, data.Test)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different results")
		}
	}
}

func TestCDRTransferBeatsChanceAndIsPerDomain(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	pred := MustNew("cdr").Fit(m, ds, Config{Epochs: 2, BatchSize: 32, Seed: 9})
	if _, ok := pred.(*PerDomainPredictor); !ok {
		t.Fatalf("cdr returned %T, want *PerDomainPredictor", pred)
	}
	if auc := MeanAUC(pred, ds, data.Test); auc < 0.55 {
		t.Fatalf("CDR transfer AUC %.4f, want > 0.55", auc)
	}
}
