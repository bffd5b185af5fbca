// Package mamdr is the public facade of the MAMDR reproduction: a model
// agnostic learning framework for multi-domain recommendation (Luo et
// al., ICDE 2023), together with the CTR model zoo, baseline learning
// frameworks, synthetic MDR benchmark generators, and the PS-Worker
// distributed trainer the paper's evaluation depends on.
//
// The typical flow is: build (or load) a multi-domain dataset, pick a
// model structure and a learning framework, train, and evaluate
// per-domain AUC:
//
//	spec := mamdr.Spec{Preset: "taobao-10", Samples: 20000, Seed: 7, Model: "mlp", EmbDim: 8}
//	ds, err := mamdr.SpecDataset(spec)
//	if err != nil {
//		log.Fatal(err)
//	}
//	res, err := mamdr.Train(ds, "mamdr", mamdr.Config{Spec: spec, Seed: 7})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res.MeanTestAUC)
//
// Everything the facade exposes is also available, with more control,
// from the internal packages; examples/ demonstrates both levels.
package mamdr

import (
	"fmt"

	_ "mamdr/internal/core" // registers the dn/dr/mamdr frameworks
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/synth"
)

// Dataset is a multi-domain recommendation dataset.
type Dataset = data.Dataset

// Spec is what a run trains on: the dataset and the model.
type Spec = framework.Spec

// Config is one training run: its Spec, hyperparameters and hooks.
type Config = framework.Config

// SpecDataset returns the dataset a training spec names: the JSON file
// at DataPath, or Preset ("amazon-6", "amazon-13", "taobao-10",
// "taobao-20", "taobao-30", "taobao-online") generated at Samples and
// Seed with the paper's per-domain imbalance profile. mamdr-train
// trains on it and mamdr-serve rebuilds it from a checkpoint's Spec.
func SpecDataset(spec Spec) (*Dataset, error) {
	if spec.DataPath != "" {
		return LoadDataset(spec.DataPath)
	}
	presets := synth.Presets(spec.Samples, spec.Seed)
	cfg, ok := presets[spec.Preset]
	if !ok {
		names := make([]string, 0, len(presets))
		for n := range presets {
			names = append(names, n)
		}
		return nil, fmt.Errorf("mamdr: unknown preset %q (have %v)", spec.Preset, names)
	}
	return synth.Generate(cfg), nil
}

// SpecModel builds the model a training spec names over ds (the
// models.New key Model at EmbDim and Seed), as SpecDataset its dataset.
func SpecModel(ds *Dataset, spec Spec) (models.Model, error) {
	return models.New(spec.Model, models.Config{Dataset: ds, EmbDim: spec.EmbDim, Seed: spec.Seed})
}

// LoadDataset reads a dataset saved with SaveDataset (JSON).
func LoadDataset(path string) (*Dataset, error) { return data.LoadJSON(path) }

// SaveDataset writes the dataset as JSON.
func SaveDataset(ds *Dataset, path string) error { return data.SaveJSON(ds, path) }

// ModelNames lists the available model structures.
func ModelNames() []string { return models.Names() }

// FrameworkNames lists the available learning frameworks (including
// "dn", "dr" and "mamdr").
func FrameworkNames() []string { return framework.Keys() }

// Result reports a finished training run.
type Result struct {
	// Predictor scores new batches (per-domain parameters applied
	// automatically where the framework keeps them).
	Predictor framework.Predictor
	// Model is the trained model (shared parameters restored).
	Model models.Model
	// TestAUC and ValAUC are per-domain AUCs indexed by domain ID.
	TestAUC []float64
	ValAUC  []float64
	// MeanTestAUC and MeanValAUC average the above.
	MeanTestAUC float64
	MeanValAUC  float64
}

// Train builds the model cfg.Spec names ("mlp" when empty) over ds, fits
// it with the framework fw names (one of FrameworkNames, "mamdr" when
// empty), and evaluates per-domain AUC on the validation and test
// splits. A fit that cannot resume returns its *framework.ResumeError.
func Train(ds *Dataset, fw string, cfg Config) (*Result, error) {
	if ds == nil {
		return nil, fmt.Errorf("mamdr: Train: nil dataset")
	}
	if cfg.Spec.Model == "" {
		cfg.Spec.Model = "mlp"
	}
	if fw == "" {
		fw = "mamdr"
	}
	m, err := SpecModel(ds, cfg.Spec)
	if err != nil {
		return nil, err
	}
	f, err := framework.New(fw)
	if err != nil {
		return nil, err
	}
	var pred framework.Predictor
	if err := framework.CatchResume(func() { pred = f.Fit(m, ds, cfg) }); err != nil {
		return nil, err
	}
	res := &Result{
		Predictor: pred,
		Model:     m,
		TestAUC:   framework.EvaluateAUC(pred, ds, data.Test),
		ValAUC:    framework.EvaluateAUC(pred, ds, data.Val),
	}
	res.MeanTestAUC = metrics.Mean(res.TestAUC)
	res.MeanValAUC = metrics.Mean(res.ValAUC)
	return res, nil
}

// Predict scores one domain's interactions with a trained predictor,
// returning click probabilities aligned with the interactions slice.
func Predict(p framework.Predictor, ds *Dataset, domain int, ins []data.Interaction) []float64 {
	return p.Predict(ds.MakeBatch(domain, ins))
}
