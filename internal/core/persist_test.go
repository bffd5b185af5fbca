package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mamdr/internal/autograd/kernels"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/synth"
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

// TestSpecRoundTrips: the training spec a state carries — its dataset
// digest and hyperparameters included — is written by Save and
// SaveTraining and set again by Load and a resume.
func TestSpecRoundTrips(t *testing.T) {
	ds := testDataset(t, 0.5)
	st := framework.MustNew("dn").Fit(testModel(t, ds), ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)
	digest, err := data.SHA256(ds)
	if err != nil {
		t.Fatal(err)
	}
	specs := []framework.Spec{
		{Preset: "taobao-10", Samples: 2400, Seed: 7, Model: "mlp", EmbDim: 4},
		{DataPath: "/data/ds.json", Seed: 11, Model: "mlp", EmbDim: 4},
		framework.Config{
			Spec: framework.Spec{DataPath: "/data/ds.json", DataSHA256: digest, Seed: 11, Model: "mlp", EmbDim: 4},
			LR:   0.05, Epochs: 3,
		}.RunSpec("mamdr"),
	}
	dir := t.TempDir()
	final, resumable := filepath.Join(dir, "final.ckpt"), filepath.Join(dir, "train.ckpt")
	for _, spec := range specs {
		st.Spec = spec
		if err := st.Save(final); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveTraining(resumable, 1, nil); err != nil {
			t.Fatal(err)
		}
		loaded := &State{Model: testModel(t, ds)}
		if err := loaded.Load(final); err != nil || loaded.Spec != spec {
			t.Fatalf("Load: spec %+v, err %v; saved %+v", loaded.Spec, err, spec)
		}
		resumed := &State{Model: testModel(t, ds)}
		if _, err := resumed.resume(resumable, spec, nil); err != nil || resumed.Spec != spec {
			t.Fatalf("resume: spec %+v, err %v; saved %+v", resumed.Spec, err, spec)
		}
		if ck, _, err := ReadState(final); err != nil || ck.Spec != spec {
			t.Fatalf("ReadState: spec %+v, err %v; saved %+v", ck.Spec, err, spec)
		}
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

// TestLoadRejectsMisfitSpecific: a checkpoint whose last θ_i segment is
// one entry short of its tensor is refused at load as damaged, instead
// of booting a server that panics on the domain's first request.
func TestLoadRejectsMisfitSpecific(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	layout := models.LayoutOf(m.Parameters(), models.EmbeddingTablesOf(m))
	if layout.IsTable(layout.NumTensors() - 1) {
		t.Fatal("the test model's last tensor is a table: dropping one value would not shorten a segment")
	}
	vecs := []paramvec.Vector{paramvec.Snapshot(m.Parameters())}
	for range ds.Domains {
		vecs = append(vecs, vecs[0].Zero())
	}
	block, err := appendBlock(nil, layout, vecs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "misfit.ckpt")
	writeRawEnvelope(t, path, checkpointVersion, v5Payload(t, Checkpoint{ModelName: m.Name(), Epoch: -1}, block[:len(block)-8]))
	if err := (&State{Model: testModel(t, ds)}).Load(path); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("a checkpoint with a short θ_i segment: Load = %v, want ErrCorruptCheckpoint", err)
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
	epoch, err := st2.resume(path, framework.Spec{}, outer2)
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
// The resumed run's spec differs from the killed one's in the epoch cap
// alone, which a resume may change.
func TestFitResumeBitIdentical(t *testing.T) {
	defer kernels.SetThreads(0)
	kernels.SetThreads(3)
	ds := testDataset(t, 0.5)
	spec := framework.Spec{DataPath: "/data/core-test.json", DataSHA256: "aa", Seed: 5, Model: "mlp", EmbDim: 4}
	base := framework.Config{Spec: spec, Epochs: 4, BatchSize: 32, Seed: 9, OuterOpt: "adagrad", OuterLR: 0.1}
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

// TestFitRefusesResumeOfAnotherSpec: a fit resumed from a checkpoint
// that recorded another spec — another dataset (its sample count and
// seed), or another model over the same one — panics with a
// *framework.ResumeError naming the fields that differ, before any
// vector is checked against the model; a checkpoint that recorded no
// spec is refused with the advice to retrain. Under the spec that wrote
// it, the checkpoint resumes.
func TestFitRefusesResumeOfAnotherSpec(t *testing.T) {
	dir := t.TempDir()
	// fit trains the model build names on the dataset it names for one
	// epoch, recording spec in its checkpoint.
	fit := func(build, spec framework.Spec, resume bool) error {
		ds := synth.Generate(synth.Presets(build.Samples, build.Seed)[build.Preset])
		m := models.MustNew(build.Model, models.Config{Dataset: ds, EmbDim: build.EmbDim, Seed: build.Seed})
		cfg := framework.Config{Spec: spec, Epochs: 1, Seed: build.Seed, CheckpointDir: dir, Resume: resume}
		return framework.CatchResume(func() { framework.MustNew("dn").Fit(m, ds, cfg) })
	}
	saved := framework.Spec{Preset: "amazon-6", Samples: 3000, Seed: 1, Model: "mlp", EmbDim: 8}
	other := saved
	other.Samples, other.Seed = 2400, 9
	wdl := saved
	wdl.Model = "wdl"

	if err := fit(saved, framework.Spec{}, false); err != nil {
		t.Fatal(err)
	}
	if err := fit(saved, saved, true); err == nil || !strings.Contains(err.Error(), "retrain") {
		t.Fatalf("resume of a checkpoint with no spec: %v, want a refusal that says to retrain", err)
	}
	if err := fit(saved, saved, false); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec    framework.Spec
		differs []string
	}{{other, []string{"Samples", "Seed"}}, {wdl, []string{"Model"}}} {
		err := fit(tc.spec, tc.spec, true)
		var re *framework.ResumeError
		if !errors.As(err, &re) {
			t.Fatalf("resume as %+v: %v, want a *framework.ResumeError", tc.spec, err)
		}
		for _, field := range []string{"Preset", "Samples", "Seed", "Model", "EmbDim"} {
			if named, want := strings.Contains(err.Error(), field+" "), slices.Contains(tc.differs, field); named != want {
				t.Errorf("resume as %+v: %q names %s: %v, want %v", tc.spec, err, field, named, want)
			}
		}
	}
	if err := fit(saved, saved, true); err != nil {
		t.Fatalf("resume under the spec that wrote the checkpoint: %v", err)
	}
}

// TestFitRefusesResumeOfAnotherFit: a fit resumed over the same dataset
// path and model but from a checkpoint of another data file's content
// (its digest), of another α or of another framework panics with a
// *framework.ResumeError naming that one field, with both values; a fit
// that changes the epoch cap alone resumes.
func TestFitRefusesResumeOfAnotherFit(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t, 0.5)
	digest := func(ds *data.Dataset) string {
		sum, err := data.SHA256(ds)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	saved := framework.Spec{DataPath: "/data/core-test.json", DataSHA256: digest(ds), Seed: 5, Model: "mlp", EmbDim: 4}
	fit := func(fw string, cfg framework.Config) error {
		cfg.BatchSize, cfg.Seed, cfg.CheckpointDir, cfg.Resume = 32, 9, dir, true
		return framework.CatchResume(func() { framework.MustNew(fw).Fit(testModel(t, ds), ds, cfg) })
	}
	if err := fit("mamdr", framework.Config{Spec: saved, Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	rewritten := saved
	rewritten.DataSHA256 = digest(testDataset(t, 0.8))
	for _, tc := range []struct {
		fw    string
		cfg   framework.Config
		names string
	}{
		{"mamdr", framework.Config{Spec: rewritten, Epochs: 1}, fmt.Sprintf("DataSHA256 %q (checkpoint %q)", rewritten.DataSHA256, saved.DataSHA256)},
		{"mamdr", framework.Config{Spec: saved, Epochs: 1, LR: 0.05}, "LR 0.05 (checkpoint 0.003)"},
		{"dn", framework.Config{Spec: saved, Epochs: 1}, `Framework "dn" (checkpoint "mamdr")`},
	} {
		err := fit(tc.fw, tc.cfg)
		var re *framework.ResumeError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), tc.names) || strings.Count(err.Error(), "(checkpoint") != 1 {
			t.Fatalf("resume as %s %+v: %v, want a *framework.ResumeError naming %s alone", tc.fw, tc.cfg.Spec, err, tc.names)
		}
	}
	if err := fit("mamdr", framework.Config{Spec: saved, Epochs: 2}); err != nil {
		t.Fatalf("resume with another epoch cap: %v", err)
	}
}
