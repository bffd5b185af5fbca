// Package framework implements the model-agnostic learning frameworks
// compared in the MAMDR paper (Table X): the traditional frameworks
// (Alternate training, Alternate+Finetune), the multi-task frameworks
// (Weighted Loss, PCGrad), and the meta-learning frameworks (MAML,
// Reptile, MLDG). The paper's own frameworks — Domain Negotiation,
// Domain Regularization, and full MAMDR — live in package core and
// register themselves here.
//
// A Framework trains any models.Model on a multi-domain dataset and
// returns a Predictor; frameworks only interact with models through
// Forward and Parameters, which is precisely the model-agnostic
// contract MAMDR is built on.
package framework

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"mamdr/internal/autograd"
	"mamdr/internal/autograd/kernels"
	"mamdr/internal/data"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/quality"
	"mamdr/internal/trace"
)

// Config carries the hyper-parameters shared by all frameworks. Zero
// values are filled with the paper's benchmark settings (scaled).
type Config struct {
	// Epochs is the number of passes over all domains.
	Epochs int
	// BatchSize is the mini-batch size.
	BatchSize int
	// LR is the base (inner-loop) learning rate α.
	LR float64
	// OuterLR is the outer-loop learning rate β of DN/Reptile (Eq. 3).
	OuterLR float64
	// DRLR is the Domain Regularization learning rate γ (Eq. 8).
	DRLR float64
	// SampleK is the number of helper domains DR samples (k).
	SampleK int
	// InnerOpt and OuterOpt name the optimizers ("sgd", "adam",
	// "adagrad") for the inner and outer loops.
	InnerOpt, OuterOpt string
	// MaxBatchesPerDomain caps the mini-batches consumed per domain
	// visit (0 = one full pass).
	MaxBatchesPerDomain int
	// FinetuneEpochs is the per-domain finetune budget of
	// Alternate+Finetune.
	FinetuneEpochs int
	// Seed drives all framework-level randomness.
	Seed int64
	// CheckpointDir, when non-empty, enables crash-safe epoch-boundary
	// checkpointing for frameworks that support it (MAMDR): parameters
	// plus the outer optimizer's state land in an atomic, CRC-guarded
	// file every CheckpointEvery epochs (default 1 when a dir is set).
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in epochs.
	CheckpointEvery int
	// Resume restores the last checkpoint in CheckpointDir before
	// training and skips the epochs it already covers; a resumed run
	// reproduces the uninterrupted run bit for bit under the same seed.
	Resume bool
	// Telemetry, when non-nil, receives per-domain training telemetry —
	// loss and grad-norm gauges, DN step timings, the gradient-conflict
	// cosine histogram — and emits JSONL epoch events. Nil (the
	// default) disables instrumentation entirely.
	Telemetry *TrainMetrics
	// Tracer, when non-nil, emits structured spans for DN/DR training:
	// one trace per epoch with per-domain inner steps, forward/backward/
	// optimizer phases, and DR lookahead passes as children. Nil (the
	// default) keeps training on the zero-overhead no-op path.
	Tracer *trace.Tracer
}

// WithDefaults returns cfg with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.LR == 0 {
		c.LR = 0.003
	}
	if c.OuterLR == 0 {
		c.OuterLR = 0.5
	}
	if c.DRLR == 0 {
		c.DRLR = 0.1
	}
	if c.SampleK == 0 {
		c.SampleK = 3
	}
	if c.InnerOpt == "" {
		c.InnerOpt = "adam"
	}
	if c.OuterOpt == "" {
		c.OuterOpt = "sgd"
	}
	if c.FinetuneEpochs == 0 {
		c.FinetuneEpochs = 3
	}
	return c
}

// Predictor scores batches after training. Implementations that keep
// per-domain parameters swap them in keyed by the batch's domain.
type Predictor interface {
	// Predict returns click probabilities for the batch.
	Predict(b *data.Batch) []float64
}

// Framework is a model-agnostic multi-domain training strategy.
type Framework interface {
	// Name returns the framework's display name.
	Name() string
	// Fit trains m on ds and returns a Predictor over the trained
	// state. Fit may mutate m's parameters.
	Fit(m models.Model, ds *data.Dataset, cfg Config) Predictor
}

// --- registry ---

var registry = map[string]func() Framework{}

// Register adds a framework constructor under a canonical key.
func Register(key string, f func() Framework) {
	if _, dup := registry[key]; dup {
		panic("framework: duplicate registration of " + key)
	}
	registry[key] = f
}

// New returns the framework registered under key.
func New(key string) (Framework, error) {
	f, ok := registry[key]
	if !ok {
		return nil, fmt.Errorf("framework: unknown framework %q (have %v)", key, Keys())
	}
	return f(), nil
}

// MustNew is New for static keys; it panics on error.
func MustNew(key string) Framework {
	f, err := New(key)
	if err != nil {
		panic(err)
	}
	return f
}

// Keys lists registered framework keys in sorted order.
func Keys() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- shared helpers ---

// SigmoidAll converts logits to probabilities through the kernels'
// batched sigmoid — one call for however many rows the logits tensor
// carries, the vectorized entry point the micro-batched serving path
// shares with single-request scoring (same expression per element, so
// batched and unbatched scores are bit-identical).
func SigmoidAll(logits *autograd.Tensor) []float64 {
	out := make([]float64, len(logits.Data))
	kernels.SigmoidTo(out, logits.Data)
	return out
}

// modelPredictor scores with the model's current parameters.
type modelPredictor struct{ m models.Model }

// Predict implements Predictor.
func (p modelPredictor) Predict(b *data.Batch) []float64 {
	logits := p.m.Forward(b, false)
	probs := SigmoidAll(logits)
	logits.Release()
	return probs
}

// NewModelPredictor wraps a trained model as a Predictor.
func NewModelPredictor(m models.Model) Predictor { return modelPredictor{m} }

// TrainDomainPass runs mini-batch gradient steps on one domain's train
// split: a full shuffled pass, capped at maxBatches when positive. It
// returns the mean training loss over the consumed batches.
//
// It is one Stepper used for one pass. The row-restricted step relies on
// one invariant: a declared table's Grad is zero outside the rows of the
// last backward. A pass that cannot assume it — this one knows nothing
// about the buffers it finds — pays one full ZeroGrad on entry; after
// that each mini-batch costs O(dense parameters + gathered rows) under SGD
// and Adagrad, and on return the buffers hold the last mini-batch's
// gradient and nothing else, as they always did. Stepper's comment lists
// who writes and who reads Grad densely and how each keeps to this.
// Callers that run many passes back to back (an inner-loop epoch, a DR
// lookahead) hold a Stepper themselves and pay the entry cost once.
func TrainDomainPass(m models.Model, ds *data.Dataset, domain int, opt optim.Optimizer, batchSize, maxBatches int, rng *rand.Rand) float64 {
	s := NewStepper(m)
	s.ZeroGrad()
	return s.Pass(context.Background(), ds, domain, opt, batchSize, maxBatches, rng)
}

// DomainGradient accumulates the gradient of the mean training loss of
// one domain (over up to maxBatches mini-batches) into the parameters'
// Grad buffers, leaving parameter values untouched. It returns the mean
// loss. It clears every buffer first and may sum several batches, so it
// is a dense Grad writer in the sense of Stepper's invariant.
func DomainGradient(m models.Model, ds *data.Dataset, domain int, batchSize, maxBatches int, rng *rand.Rand) float64 {
	batches := ds.Batches(domain, data.Train, batchSize, rng)
	if maxBatches > 0 && len(batches) > maxBatches {
		batches = batches[:maxBatches]
	}
	params := m.Parameters()
	for _, p := range params {
		p.ZeroGrad()
	}
	var total float64
	for _, b := range batches {
		loss := autograd.Scale(autograd.BCEWithLogits(m.Forward(b, true), b.Labels), 1/float64(len(batches)))
		loss.Backward()
		total += loss.Item() * float64(len(batches))
		loss.Release()
	}
	if len(batches) == 0 {
		return 0
	}
	return total / float64(len(batches))
}

// EvaluateAUC computes the per-domain AUC of a predictor on a split,
// indexed by domain ID. One AUCScratch is shared across the domains, so
// the per-epoch eval loop sorts without a fresh index allocation per
// domain.
func EvaluateAUC(p Predictor, ds *data.Dataset, split data.Split) []float64 {
	var scratch metrics.AUCScratch
	out := make([]float64, ds.NumDomains())
	for d := range ds.Domains {
		b := ds.FullBatch(d, split)
		out[d] = scratch.AUC(p.Predict(b), b.Labels)
	}
	return out
}

// MeanAUC is the average of EvaluateAUC across domains.
func MeanAUC(p Predictor, ds *data.Dataset, split data.Split) float64 {
	return metrics.Mean(EvaluateAUC(p, ds, split))
}

// QualityBaseline profiles a predictor on a split: per-domain score
// histograms, positive rates, AUC and logloss. This is the reference a
// serving process compares live traffic against (PSI drift, AUC
// regression), frozen into checkpoints by SaveWithBaseline.
func QualityBaseline(p Predictor, ds *data.Dataset, split data.Split) *quality.Baseline {
	bb := quality.NewBaselineBuilder(0)
	for d, dom := range ds.Domains {
		b := ds.FullBatch(d, split)
		if b.Size() == 0 {
			continue
		}
		bb.Observe(dom.Name, p.Predict(b), b.Labels)
	}
	return bb.Build()
}

// EmitQuality runs a predictor over a split and feeds the scored,
// labeled batches into a quality tracker — the trainer-side emission
// that puts offline eval on the same metric schema as live serving.
// Callers pass a passive tracker (Options.Checks off) when breach
// counting should stay a serving-side concern.
func EmitQuality(t *quality.Tracker, p Predictor, ds *data.Dataset, split data.Split) {
	if t == nil {
		return
	}
	for d, dom := range ds.Domains {
		b := ds.FullBatch(d, split)
		if b.Size() == 0 {
			continue
		}
		scores := p.Predict(b)
		labels := make([]bool, len(b.Labels))
		for i, l := range b.Labels {
			labels[i] = l > 0.5
		}
		t.ObserveLabeled(dom.Name, scores, labels)
	}
	t.Flush()
}

// shuffledDomains returns a random permutation of domain ids.
func shuffledDomains(n int, rng *rand.Rand) []int {
	order := rng.Perm(n)
	return order
}

// autogradBCE builds the training loss graph for one batch.
func autogradBCE(m models.Model, b *data.Batch) *autograd.Tensor {
	return autograd.BCEWithLogits(m.Forward(b, true), b.Labels)
}
