package mamdr

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/data"
	"mamdr/internal/framework"
)

// specDataset is SpecDataset for a spec the test knows is valid.
func specDataset(t testing.TB, spec Spec) *Dataset {
	t.Helper()
	ds, err := SpecDataset(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSpecDatasetPresets(t *testing.T) {
	for _, preset := range []string{"amazon-6", "amazon-13", "taobao-10", "taobao-20", "taobao-30", "taobao-online"} {
		ds := specDataset(t, Spec{Preset: preset, Samples: 1500, Seed: 3})
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
	}
}

// TestSpecDatasetPresetDigest: SpecDataset fills in a preset's digest,
// the same for the same (preset, samples, seed) and another for another
// seed, and equal to that of the file SaveDataset writes for it. No
// digest is pinned: the generator's math.Exp/Tanh/Pow results differ
// with and without FMA, so a constant would hold on one host only.
func TestSpecDatasetPresetDigest(t *testing.T) {
	digest := func(seed int64) (string, *Dataset) {
		spec := Spec{Preset: "taobao-10", Samples: 1500, Seed: seed}
		ds := specDataset(t, spec)
		if _, err := SpecDataset(&spec); err != nil || len(spec.DataSHA256) != 64 {
			t.Fatalf("seed %d: digest %q, %v", seed, spec.DataSHA256, err)
		}
		return spec.DataSHA256, ds
	}
	a, ds := digest(3)
	if again, _ := digest(3); again != a {
		t.Fatalf("the same preset, samples and seed hash to %s and %s", a, again)
	}
	if other, _ := digest(4); other == a {
		t.Fatalf("seeds 3 and 4 both hash to %s", a)
	}
	path := filepath.Join(t.TempDir(), "taobao.json")
	if err := SaveDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	file := specDataset(t, Spec{DataPath: path})
	if sum, _ := data.FileSHA256(path); sum != a || file.TotalSamples() != ds.TotalSamples() {
		t.Fatalf("the saved preset's file hashes to %s, the preset to %s", sum, a)
	}
}

func TestSpecDatasetUnknownPreset(t *testing.T) {
	if _, err := SpecDataset(&Spec{Preset: "netflix", Samples: 1500, Seed: 3}); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestSaveLoadDataset(t *testing.T) {
	ds := specDataset(t, Spec{Preset: "taobao-10", Samples: 1200, Seed: 3})
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := SaveDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || got.TotalSamples() != ds.TotalSamples() {
		t.Fatal("round trip lost data")
	}
}

func TestNamesNonEmpty(t *testing.T) {
	if len(ModelNames()) != 11 {
		t.Fatalf("ModelNames = %v", ModelNames())
	}
	fw := FrameworkNames()
	want := map[string]bool{"mamdr": true, "dn": true, "dr": true, "alternate": true}
	found := 0
	for _, k := range fw {
		if want[k] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("FrameworkNames missing core entries: %v", fw)
	}
}

func TestTrainEndToEnd(t *testing.T) {
	ds := specDataset(t, Spec{Preset: "taobao-10", Samples: 2000, Seed: 3})
	res, err := Train(ds, "mamdr", Config{Spec: Spec{Model: "mlp", Seed: 5}, Epochs: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TestAUC) != ds.NumDomains() || len(res.ValAUC) != ds.NumDomains() {
		t.Fatal("per-domain AUC lengths wrong")
	}
	if res.MeanTestAUC <= 0.5 {
		t.Fatalf("mean test AUC %.4f, want > 0.5", res.MeanTestAUC)
	}
	if res.Predictor == nil || res.Model == nil {
		t.Fatal("missing predictor/model")
	}
}

func TestTrainDefaults(t *testing.T) {
	ds := specDataset(t, Spec{Preset: "taobao-10", Samples: 1200, Seed: 3})
	res, err := Train(ds, "", Config{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanTestAUC == 0 {
		t.Fatal("evaluation missing")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, "", Config{}); err == nil {
		t.Fatal("expected error for nil dataset")
	}
	ds := specDataset(t, Spec{Preset: "taobao-10", Samples: 1200, Seed: 3})
	if _, err := Train(ds, "", Config{Spec: Spec{Model: "nope"}}); err == nil {
		t.Fatal("expected error for unknown model")
	}
	if _, err := Train(ds, "nope", Config{}); err == nil {
		t.Fatal("expected error for unknown framework")
	}
}

func TestPredictHelper(t *testing.T) {
	ds := specDataset(t, Spec{Preset: "taobao-10", Samples: 1200, Seed: 3})
	res, err := Train(ds, "alternate", Config{Spec: Spec{Model: "mlp"}, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ins := []data.Interaction{{User: 0, Item: 0, Label: 1}, {User: 1, Item: 1, Label: 0}}
	probs := Predict(res.Predictor, ds, 0, ins)
	if len(probs) != 2 {
		t.Fatalf("got %d probs", len(probs))
	}
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %g out of range", p)
		}
	}
}

// TestTrainRefusesResumeOfAnotherSpec: a Train that resumes a checkpoint
// written by a run on another dataset returns the refusal, naming what
// differs, instead of panicking or training on.
func TestTrainRefusesResumeOfAnotherSpec(t *testing.T) {
	dir := t.TempDir()
	saved := Spec{Preset: "taobao-10", Samples: 1200, Seed: 3, Model: "mlp", EmbDim: 4}
	ds := specDataset(t, saved)
	if _, err := Train(ds, "dn", Config{Spec: saved, Epochs: 1, Seed: 3, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	other := saved
	other.Samples, other.Seed = 1000, 9
	_, err := Train(specDataset(t, other), "dn", Config{Spec: other, Epochs: 2, Seed: 9, CheckpointDir: dir, Resume: true})
	var re *framework.ResumeError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "Samples") || !strings.Contains(err.Error(), "Seed") {
		t.Fatalf("resume of another spec: err = %v, want a *framework.ResumeError naming Samples and Seed", err)
	}
}
