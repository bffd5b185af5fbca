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
//	ds := mamdr.GenerateDataset(mamdr.DatasetSpec{Preset: "taobao-10", TotalSamples: 20000, Seed: 7})
//	res, err := mamdr.Train(mamdr.TrainSpec{
//		Dataset:   ds,
//		Model:     "mlp",
//		Framework: "mamdr",
//	})
//	fmt.Println(res.MeanTestAUC)
//
// Everything the facade exposes is also available, with more control,
// from the internal packages; examples/ demonstrates both levels.
package mamdr

import (
	"fmt"

	"mamdr/internal/core" // also registers the dn/dr/mamdr frameworks
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/synth"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// Dataset is a multi-domain recommendation dataset.
type Dataset = data.Dataset

// DatasetSpec selects a synthetic benchmark to generate.
type DatasetSpec struct {
	// Preset names one of the paper's benchmarks: "amazon-6",
	// "amazon-13", "taobao-10", "taobao-20", "taobao-30",
	// "taobao-online".
	Preset string
	// TotalSamples scales the dataset (the paper's per-domain imbalance
	// profile is preserved). Default 10000.
	TotalSamples int
	// Seed fixes generation. Default 1.
	Seed int64
}

// GenerateDataset builds a synthetic benchmark equivalent. It panics on
// an unknown preset name; use GenerateDatasetErr for error handling.
func GenerateDataset(spec DatasetSpec) *Dataset {
	ds, err := GenerateDatasetErr(spec)
	if err != nil {
		panic(err)
	}
	return ds
}

// GenerateDatasetErr is GenerateDataset returning an error for unknown
// presets.
func GenerateDatasetErr(spec DatasetSpec) (*Dataset, error) {
	if spec.TotalSamples == 0 {
		spec.TotalSamples = 10000
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	presets := synth.Presets(spec.TotalSamples, spec.Seed)
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

// SpecDataset returns the dataset a training spec names: the JSON file
// at DataPath, or Preset generated at Samples and Seed. mamdr-train
// trains on it and mamdr-serve rebuilds it from a checkpoint's Spec.
func SpecDataset(spec core.Spec) (*Dataset, error) {
	if spec.DataPath != "" {
		return LoadDataset(spec.DataPath)
	}
	return GenerateDatasetErr(DatasetSpec{Preset: spec.Preset, TotalSamples: spec.Samples, Seed: spec.Seed})
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

// TrainSpec configures one training run.
type TrainSpec struct {
	Dataset *Dataset
	// Model names the structure ("mlp", "wdl", "neurfm", "autoint",
	// "deepfm", "sharedbottom", "mmoe", "cgc", "ple", "star", "raw").
	Model string
	// Framework names the learning framework ("alternate", "finetune",
	// "weighted", "pcgrad", "maml", "reptile", "mldg", "separate",
	// "dn", "dr", "mamdr").
	Framework string
	// Epochs, BatchSize, Seed and the learning rates override the
	// framework defaults when non-zero.
	Epochs    int
	BatchSize int
	Seed      int64
	// InnerLR is the inner-loop learning rate α.
	InnerLR float64
	// OuterLR is DN's outer-loop learning rate β.
	OuterLR float64
	// DRLR is Domain Regularization's learning rate γ.
	DRLR float64
	// SampleK is DR's helper-domain sample count k.
	SampleK int
	// CheckpointDir enables crash-safe epoch-boundary checkpointing for
	// frameworks that support it (MAMDR): parameters plus outer
	// optimizer state land atomically in <dir>/mamdr.ckpt every
	// CheckpointEvery epochs (default 1 when a dir is set).
	CheckpointDir   string
	CheckpointEvery int
	// Resume restores the last checkpoint in CheckpointDir and skips the
	// epochs it covers; with the same Seed the resumed run reproduces an
	// uninterrupted run bit for bit.
	Resume bool
	// EmbDim and Hidden override the model defaults when non-zero.
	EmbDim int
	Hidden []int
	// Dropout is the model's dropout rate.
	Dropout float64
	// Metrics, when non-nil, receives training telemetry (per-domain
	// loss/grad-norm gauges, DN step timings, the gradient-conflict
	// histogram) for Prometheus exposition via Metrics.Handler().
	Metrics *telemetry.Registry
	// Events, when non-nil, receives one JSONL event per epoch so runs
	// are replayable and plottable.
	Events *telemetry.EventLog
	// Tracer, when non-nil, emits structured spans for the training run
	// (epochs, per-domain inner steps, forward/backward/optimizer
	// phases, DR lookaheads) and arms its flight recorder: a NaN/Inf
	// loss or a per-domain loss z-score spike dumps the most recent
	// spans to a Chrome trace-event JSON file.
	Tracer *trace.Tracer
}

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

// Train builds the model, fits it with the chosen framework, and
// evaluates per-domain AUC on the validation and test splits.
func Train(spec TrainSpec) (*Result, error) {
	if spec.Dataset == nil {
		return nil, fmt.Errorf("mamdr: TrainSpec.Dataset is nil")
	}
	if spec.Model == "" {
		spec.Model = "mlp"
	}
	if spec.Framework == "" {
		spec.Framework = "mamdr"
	}
	m, err := models.New(spec.Model, models.Config{
		Dataset: spec.Dataset,
		EmbDim:  spec.EmbDim,
		Hidden:  spec.Hidden,
		Dropout: spec.Dropout,
		Seed:    spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	fw, err := framework.New(spec.Framework)
	if err != nil {
		return nil, err
	}
	cfg := framework.Config{
		Epochs:          spec.Epochs,
		BatchSize:       spec.BatchSize,
		Seed:            spec.Seed,
		LR:              spec.InnerLR,
		OuterLR:         spec.OuterLR,
		DRLR:            spec.DRLR,
		SampleK:         spec.SampleK,
		CheckpointDir:   spec.CheckpointDir,
		CheckpointEvery: spec.CheckpointEvery,
		Resume:          spec.Resume,
		Telemetry:       framework.WireTrainMetrics(spec.Metrics, spec.Dataset, spec.Events, spec.Tracer),
		Tracer:          spec.Tracer,
	}
	pred := fw.Fit(m, spec.Dataset, cfg)

	res := &Result{
		Predictor: pred,
		Model:     m,
		TestAUC:   framework.EvaluateAUC(pred, spec.Dataset, data.Test),
		ValAUC:    framework.EvaluateAUC(pred, spec.Dataset, data.Val),
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
