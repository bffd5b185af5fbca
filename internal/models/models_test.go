package models

import (
	"math"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/synth"
)

// testDataset returns a small learned-embedding (Amazon-style) dataset.
func testDataset(t *testing.T) *data.Dataset {
	t.Helper()
	ds := synth.Generate(synth.Config{
		Name: "test", Seed: 11, ConflictStrength: 0.5,
		Domains: []synth.DomainSpec{
			{Name: "a", Samples: 300, CTRRatio: 0.3},
			{Name: "b", Samples: 200, CTRRatio: 0.4},
			{Name: "c", Samples: 120, CTRRatio: 0.25},
		},
	})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// fixedDataset returns a small frozen-feature (Taobao-style) dataset.
func fixedDataset(t *testing.T) *data.Dataset {
	t.Helper()
	ds := synth.Generate(synth.Config{
		Name: "test-fixed", Seed: 13, ConflictStrength: 0.5, FixedFeatures: true,
		Domains: []synth.DomainSpec{
			{Name: "a", Samples: 250, CTRRatio: 0.3},
			{Name: "b", Samples: 150, CTRRatio: 0.4},
		},
	})
	return ds
}

func smallConfig(ds *data.Dataset) Config {
	return Config{Dataset: ds, EmbDim: 4, Hidden: []int{8, 4}, Seed: 3}
}

var allModelNames = []string{
	"mlp", "wdl", "neurfm", "autoint", "deepfm",
	"sharedbottom", "mmoe", "cgc", "ple", "star", "raw",
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != len(allModelNames) {
		t.Fatalf("registry has %d models (%v), want %d", len(names), names, len(allModelNames))
	}
	for _, n := range allModelNames {
		if _, err := New(n, smallConfig(testDataset(t))); err != nil {
			t.Fatalf("New(%s): %v", n, err)
		}
	}
}

func TestNewUnknownModel(t *testing.T) {
	if _, err := New("transformer9000", smallConfig(testDataset(t))); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestNewNilDataset(t *testing.T) {
	if _, err := New("mlp", Config{}); err == nil {
		t.Fatal("expected error for nil dataset")
	}
}

func TestMustNewPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew("nope", Config{})
}

// TestAllModelsForwardBothRegimes checks every structure produces
// finite, per-sample logits on learned-embedding and frozen-feature
// datasets alike.
func TestAllModelsForwardBothRegimes(t *testing.T) {
	for _, ds := range []*data.Dataset{testDataset(t), fixedDataset(t)} {
		cfg := smallConfig(ds)
		for _, name := range allModelNames {
			m := MustNew(name, cfg)
			for d := 0; d < ds.NumDomains(); d++ {
				b := ds.FullBatch(d, data.Train)
				logits := m.Forward(b, false)
				if logits.Rows != b.Size() || logits.Cols != 1 {
					t.Fatalf("%s/%s: logits %dx%d for %d samples", ds.Name, name, logits.Rows, logits.Cols, b.Size())
				}
				for _, v := range logits.Data {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s/%s: non-finite logit", ds.Name, name)
					}
				}
			}
		}
	}
}

// TestAllModelsGradientsFlow runs one backward pass per structure and
// requires at least one parameter tensor to receive nonzero gradient.
func TestAllModelsGradientsFlow(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(ds)
	for _, name := range allModelNames {
		m := MustNew(name, cfg)
		b := ds.FullBatch(0, data.Train)
		loss := autograd.BCEWithLogits(m.Forward(b, true), b.Labels)
		loss.Backward()
		var touched int
		for _, p := range m.Parameters() {
			for _, g := range p.Grad {
				if g != 0 {
					touched++
					break
				}
			}
		}
		if touched == 0 {
			t.Fatalf("%s: no parameter received gradient", name)
		}
	}
}

func TestParametersStableOrder(t *testing.T) {
	ds := testDataset(t)
	for _, name := range allModelNames {
		m := MustNew(name, smallConfig(ds))
		a, b := m.Parameters(), m.Parameters()
		if len(a) == 0 {
			t.Fatalf("%s: no parameters", name)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: parameter count unstable", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: parameter order unstable at %d", name, i)
			}
		}
	}
}

func TestSameSeedSameInit(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(ds)
	m1 := MustNew("mlp", cfg)
	m2 := MustNew("mlp", cfg)
	p1, p2 := m1.Parameters(), m2.Parameters()
	for i := range p1 {
		for j := range p1[i].Data {
			if p1[i].Data[j] != p2[i].Data[j] {
				t.Fatal("same seed produced different initialization")
			}
		}
	}
}

func TestDomainRoutingChangesOutput(t *testing.T) {
	// Multi-domain structures must produce different logits when the
	// same samples are presented under different domains (after nudging
	// the specific parameters away from their init).
	ds := testDataset(t)
	for _, name := range []string{"sharedbottom", "mmoe", "cgc", "ple", "star"} {
		m := MustNew(name, smallConfig(ds))
		// Perturb all parameters so freshly initialized specific parts
		// (e.g. STAR's unit weights) differ across domains.
		rngSeed := 0
		for _, p := range m.Parameters() {
			for i := range p.Data {
				rngSeed = (rngSeed*1103515245 + 12345) & 0x7fffffff
				p.Data[i] += 0.05 * (float64(rngSeed%1000)/500 - 1)
			}
		}
		b := ds.FullBatch(0, data.Train)
		l0 := m.Forward(b, false).Clone()
		b1 := *b
		b1.Domain = 1
		l1 := m.Forward(&b1, false)
		var diff float64
		for i := range l0.Data {
			diff += math.Abs(l0.Data[i] - l1.Data[i])
		}
		if diff == 0 {
			t.Fatalf("%s: domain routing has no effect", name)
		}
	}
}

func TestSingleDomainModelsIgnoreDomain(t *testing.T) {
	ds := testDataset(t)
	for _, name := range []string{"mlp", "wdl", "neurfm", "autoint", "deepfm", "raw"} {
		m := MustNew(name, smallConfig(ds))
		b := ds.FullBatch(0, data.Train)
		l0 := m.Forward(b, false).Clone()
		b1 := *b
		b1.Domain = 2
		l1 := m.Forward(&b1, false)
		for i := range l0.Data {
			if l0.Data[i] != l1.Data[i] {
				t.Fatalf("%s: single-domain model output depends on domain id", name)
			}
		}
	}
}

func TestSTARDomainWeightsStartAtSharedNetwork(t *testing.T) {
	ds := testDataset(t)
	m := MustNew("star", smallConfig(ds)).(*STAR)
	for _, l := range m.layers {
		for _, wd := range l.wDomain {
			for _, v := range wd.Data {
				if v != 1 {
					t.Fatal("STAR domain weights must initialize to 1")
				}
			}
		}
		for _, bd := range l.bDomain {
			for _, v := range bd.Data {
				if v != 0 {
					t.Fatal("STAR domain biases must initialize to 0")
				}
			}
		}
	}
}

func TestModelNames(t *testing.T) {
	ds := testDataset(t)
	want := map[string]string{
		"mlp": "MLP", "wdl": "WDL", "neurfm": "NeurFM", "autoint": "AutoInt",
		"deepfm": "DeepFM", "sharedbottom": "Shared-Bottom", "mmoe": "MMOE",
		"cgc": "CGC", "ple": "PLE", "star": "Star", "raw": "RAW",
	}
	for key, name := range want {
		if got := MustNew(key, smallConfig(ds)).Name(); got != name {
			t.Fatalf("%s.Name() = %q, want %q", key, got, name)
		}
	}
}

// TestModelsLearnOnSingleDomain trains each structure briefly on one
// domain and requires the training loss to drop substantially.
func TestModelsLearnOnSingleDomain(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(ds)
	for _, name := range allModelNames {
		m := MustNew(name, cfg)
		b := ds.FullBatch(0, data.Train)
		initial := autograd.BCEWithLogits(m.Forward(b, false), b.Labels).Item()
		lr := 0.05
		for step := 0; step < 60; step++ {
			for _, p := range m.Parameters() {
				p.ZeroGrad()
			}
			loss := autograd.BCEWithLogits(m.Forward(b, true), b.Labels)
			loss.Backward()
			for _, p := range m.Parameters() {
				for i := range p.Data {
					p.Data[i] -= lr * p.Grad[i]
				}
			}
		}
		final := autograd.BCEWithLogits(m.Forward(b, false), b.Labels).Item()
		if !(final < initial) {
			t.Fatalf("%s: loss did not improve (%.4f -> %.4f)", name, initial, final)
		}
	}
}

func TestEncoderFixedVsLearned(t *testing.T) {
	learned := NewEncoder(testDataset(t), 4, rngFor(Config{Seed: 1}))
	if learned.NumFields() != 6 || learned.FieldDim() != 4 || learned.InputDim() != 24 {
		t.Fatalf("learned encoder dims: %d fields x %d = %d", learned.NumFields(), learned.FieldDim(), learned.InputDim())
	}
	if len(learned.Parameters()) != 6 {
		t.Fatalf("learned encoder params = %d, want 6", len(learned.Parameters()))
	}
	fixed := NewEncoder(fixedDataset(t), 4, rngFor(Config{Seed: 1}))
	if fixed.NumFields() != 2 || fixed.FieldDim() != 16 || fixed.InputDim() != 32 {
		t.Fatalf("fixed encoder dims: %d fields x %d = %d", fixed.NumFields(), fixed.FieldDim(), fixed.InputDim())
	}
	if len(fixed.Parameters()) != 0 {
		t.Fatal("fixed encoder must expose no parameters")
	}
}

// TestReplicaContract: every structure is a Replicator. Its replica has
// the same parameter shapes in the same order and the same
// EmbeddingTables, shares no parameter storage with its source, and after
// SeedMasks with one seed the two draw the same dropout masks — so a
// training forward agrees between them once their parameters do.
func TestReplicaContract(t *testing.T) {
	for _, ds := range []*data.Dataset{testDataset(t), fixedDataset(t)} {
		cfg := smallConfig(ds)
		cfg.Dropout = 0.3
		for _, name := range Names() {
			m := MustNew(name, cfg)
			src, ok := m.(Replicator)
			if !ok {
				t.Fatalf("%s is no Replicator", name)
			}
			// Move the source off its initial values and advance its mask
			// stream: a replica must depend on neither.
			for _, p := range m.Parameters() {
				for i := range p.Data {
					p.Data[i] += 0.25
				}
			}
			b := ds.FullBatch(0, data.Train)
			m.Forward(b, true).Release()

			r := src.Replica()
			if r.Name() != m.Name() {
				t.Fatalf("%s: replica is a %s", name, r.Name())
			}
			mp, rp := m.Parameters(), r.Parameters()
			if len(mp) != len(rp) {
				t.Fatalf("%s: replica has %d tensors, source %d", name, len(rp), len(mp))
			}
			for i := range mp {
				if mp[i].Rows != rp[i].Rows || mp[i].Cols != rp[i].Cols {
					t.Fatalf("%s: tensor %d is %dx%d in the replica, %dx%d in the source",
						name, i, rp[i].Rows, rp[i].Cols, mp[i].Rows, mp[i].Cols)
				}
				if mp[i] == rp[i] || &mp[i].Data[0] == &rp[i].Data[0] || &mp[i].Grad[0] == &rp[i].Grad[0] {
					t.Fatalf("%s: tensor %d shares storage with the source", name, i)
				}
			}
			mt, rt := EmbeddingTablesOf(m), EmbeddingTablesOf(r)
			if len(mt) != len(rt) {
				t.Fatalf("%s: replica declares %d tables, source %d", name, len(rt), len(mt))
			}
			for k, v := range mt {
				if got, ok := rt[k]; !ok || got != v {
					t.Fatalf("%s: table %d → field %d in the source, %d (%v) in the replica", name, k, v, got, ok)
				}
			}

			for i := range mp {
				copy(rp[i].Data, mp[i].Data)
			}
			src.SeedMasks(77)
			r.(Replicator).SeedMasks(77)
			want, got := m.Forward(b, true), r.Forward(b, true)
			for i := range want.Data {
				if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
					t.Fatalf("%s/%s: logit %d differs between source and replica under one mask seed", ds.Name, name, i)
				}
			}
		}
	}
}
