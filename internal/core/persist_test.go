package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mamdr/internal/autograd/kernels"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := testDataset(t, 0.8)
	m := testModel(t, ds)
	st := framework.MustNew("mamdr").Fit(m, ds, framework.Config{Epochs: 2, BatchSize: 32, Seed: 9}).(*State)

	// Reference predictions before saving.
	b := ds.FullBatch(1, data.Test)
	want := st.Predict(b)

	path := filepath.Join(t.TempDir(), "state.gob")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}

	// Load into a freshly built state over a fresh model.
	m2 := testModel(t, ds)
	st2 := &State{Model: m2}
	if err := st2.Load(path); err != nil {
		t.Fatal(err)
	}
	got := st2.Predict(b)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("prediction %d differs after reload: %g vs %g", i, got[i], want[i])
		}
	}
	if len(st2.Specific) != ds.NumDomains() {
		t.Fatalf("specific vectors lost: %d", len(st2.Specific))
	}
}

func TestLoadRejectsWrongModel(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	st := framework.MustNew("dn").Fit(m, ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)
	path := filepath.Join(t.TempDir(), "state.gob")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}

	other := &State{Model: models.MustNew("wdl", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Seed: 5})}
	if err := other.Load(path); err == nil {
		t.Fatal("expected model-name mismatch error")
	}
}

func TestLoadRejectsMissingFile(t *testing.T) {
	ds := testDataset(t, 0.5)
	st := &State{Model: testModel(t, ds)}
	if err := st.Load(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadRejectsCorruptCheckpoint(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	st := framework.MustNew("dn").Fit(m, ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty file":        {},
		"half-written head": good[:10],
		"truncated payload": good[:len(good)-7],
		"not a checkpoint":  []byte("definitely not a checkpoint"),
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x40
	cases["bit flip in payload"] = flipped

	for name, contents := range cases {
		if err := os.WriteFile(path, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := &State{Model: testModel(t, ds)}
		err := fresh.Load(path)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s: Load = %v, want ErrCorruptCheckpoint", name, err)
		}
	}

	// And the pristine file still loads.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := &State{Model: testModel(t, ds)}
	if err := fresh.Load(path); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

func TestSaveTrainingRoundTripsOptimizerState(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	st := framework.MustNew("mamdr").Fit(m, ds, framework.Config{Epochs: 2, BatchSize: 32, Seed: 9}).(*State)

	outer := optim.New("adagrad", 0.1)
	// Give the optimizer some accumulated state to checkpoint.
	params := m.Parameters()
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0.25
		}
	}
	outer.Step(params)
	want := outer.(optim.Stateful).CaptureState(params)

	path := filepath.Join(t.TempDir(), "train.ckpt")
	if err := st.SaveTraining(path, 7, outer); err != nil {
		t.Fatal(err)
	}

	m2 := testModel(t, ds)
	st2 := &State{Model: m2}
	outer2 := optim.New("adagrad", 0.1)
	epoch, err := st2.LoadTraining(path, outer2)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 {
		t.Fatalf("resume cursor = %d, want 7", epoch)
	}
	got := outer2.(optim.Stateful).CaptureState(m2.Parameters())
	if got.Name != want.Name {
		t.Fatalf("optimizer name %q vs %q", got.Name, want.Name)
	}
	for slot, bufs := range want.Slots {
		for i := range bufs {
			for j := range bufs[i] {
				if got.Slots[slot][i][j] != bufs[i][j] {
					t.Fatalf("slot %s[%d][%d] = %g, want %g", slot, i, j, got.Slots[slot][i][j], bufs[i][j])
				}
			}
		}
	}
}

// TestFitResumeBitIdentical is the single-process crash-safety
// property: a run killed after epoch 2 and resumed must end bit-for-bit
// where an uninterrupted run of the same seed ends — with the DR phases
// on three workers, and with dropout, whose mask stream no checkpoint
// carries: every epoch and every DR target seeds it from the epoch RNG.
func TestFitResumeBitIdentical(t *testing.T) {
	defer kernels.SetThreads(0)
	kernels.SetThreads(3)
	ds := testDataset(t, 0.5)
	base := framework.Config{Epochs: 4, BatchSize: 32, Seed: 9, OuterOpt: "adagrad", OuterLR: 0.1}
	build := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Dropout: 0.2, Seed: 5})
	}

	full := framework.MustNew("mamdr").Fit(build(), ds, base).(*State)

	dir := t.TempDir()
	killed := base
	killed.Epochs = 2 // the "crash": training simply stops after epoch 2
	killed.CheckpointDir = dir
	framework.MustNew("mamdr").Fit(build(), ds, killed)

	resumed := base
	resumed.CheckpointDir = dir
	resumed.Resume = true
	got := framework.MustNew("mamdr").Fit(build(), ds, resumed).(*State)

	for i := range full.Shared {
		for j := range full.Shared[i] {
			if full.Shared[i][j] != got.Shared[i][j] {
				t.Fatalf("Shared[%d][%d] = %g resumed vs %g uninterrupted (must be bit-identical)",
					i, j, got.Shared[i][j], full.Shared[i][j])
			}
		}
	}
	for d := range full.Specific {
		for i := range full.Specific[d] {
			for j := range full.Specific[d][i] {
				if full.Specific[d][i][j] != got.Specific[d][i][j] {
					t.Fatalf("Specific[%d][%d][%d] differs after resume", d, i, j)
				}
			}
		}
	}
}
