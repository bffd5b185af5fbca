// Package models implements the CTR model structures evaluated in the
// MAMDR paper: the single-domain baselines (MLP, WDL, NeurFM, AutoInt,
// DeepFM), the multi-task/multi-domain baselines (Shared-Bottom, MMoE,
// CGC, PLE, STAR), and the compact production-style RAW model used in
// the industry experiments.
//
// Every model implements the small Model interface; learning frameworks
// interact with models exclusively through it, which is what makes the
// MAMDR framework model agnostic.
package models

import (
	"fmt"
	"math/rand"
	"sort"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
)

// Model is a trainable CTR predictor over multi-domain batches.
type Model interface {
	// Forward computes one logit per sample (Nx1). Multi-domain
	// structures route by b.Domain; single-domain structures ignore it.
	// training toggles dropout.
	Forward(b *data.Batch, training bool) *autograd.Tensor
	// Parameters returns the trainable tensors in a stable order.
	Parameters() []*autograd.Tensor
	// Name returns the structure's name (e.g. "MLP", "STAR").
	Name() string
}

// EmbeddingTabler is implemented by models that can identify which of
// their Parameters() are per-field embedding tables. The returned map
// keys are parameter indices and the values are the schema fields whose
// ids index the table's rows. The parameter server synchronizes exactly
// these tensors row-wise (touched rows only, through the static/dynamic
// cache of Section IV-E); every other tensor is synchronized densely.
//
// All models in this package implement the interface by delegating to
// their Encoder, extended with any extra per-field tables they own
// (e.g. the vocab x 1 wide/first-order tables of WDL, NeurFM, DeepFM).
type EmbeddingTabler interface {
	EmbeddingTables() map[int]int
}

// EmbeddingTablesOf returns m's embedding-table classification, or an
// empty map when the model does not implement EmbeddingTabler — in that
// case every tensor is synchronized densely, which is always correct
// (just more traffic) and never silently skips a tensor.
func EmbeddingTablesOf(m Model) map[int]int {
	if t, ok := m.(EmbeddingTabler); ok {
		return t.EmbeddingTables()
	}
	return map[int]int{}
}

// DomainTowered is implemented by the structures that build one
// sub-network (tower, gate, star weights) per domain of the dataset they
// were constructed on. Such a model has nothing to route a later-
// registered domain id through, so runtime domain registration — which
// for every other structure only adds a zero θ_i — must be refused for
// it.
type DomainTowered interface {
	// DomainTowers returns how many domains the model can route.
	DomainTowers() int
}

// DomainCapacity returns the number of domains m can score and whether
// that number is a limit at all; structures that ignore or merely embed
// b.Domain have none.
func DomainCapacity(m Model) (n int, bounded bool) {
	if t, ok := m.(DomainTowered); ok {
		return t.DomainTowers(), true
	}
	return 0, false
}

// mustRoute panics, naming the structure, when a batch's domain has no
// tower: the alternative is an index-out-of-range deep inside nn.
func mustRoute(m interface {
	Model
	DomainTowered
}, domain int) {
	if domain < 0 || domain >= m.DomainTowers() {
		panic(fmt.Sprintf("models: %s has %d per-domain towers and cannot score domain %d: a structure with per-domain towers serves only the domains it was built on",
			m.Name(), m.DomainTowers(), domain))
	}
}

// Replicator is implemented by models that several workers can train at
// once, one model each: core's DR phase gives every worker beyond the
// first a replica and restarts each model's dropout stream per target. A
// model that does not implement it trains on one worker.
type Replicator interface {
	// Replica builds a model of the same structure and Config: the same
	// parameter shapes in the same order and the same EmbeddingTables,
	// sharing no storage (Data, Grad, dropout stream) with its source.
	// Its parameter values are a fresh build's, not the source's current
	// ones; the caller loads what it trains from.
	Replica() Model
	// SeedMasks restarts the stream the model draws dropout masks from,
	// so the masks of what follows depend on seed alone and not on what
	// the model ran before.
	SeedMasks(seed int64)
}

// SeedMasks restarts m's dropout stream when m is a Replicator. A model
// that is none runs on one worker, in one order, and keeps its stream.
func SeedMasks(m Model, seed int64) {
	if r, ok := m.(Replicator); ok {
		r.SeedMasks(seed)
	}
}

// origin is what every structure in this package keeps of how it was
// built: the Config, from which Replica builds its sibling, and the RNG
// that initialised the parameters and then serves the dropout masks.
type origin struct {
	cfg Config
	rng *rand.Rand
}

// SeedMasks implements Replicator.
func (o origin) SeedMasks(seed int64) { o.rng.Seed(seed) }

// Config carries everything needed to build any model structure.
type Config struct {
	Dataset *data.Dataset
	// EmbDim is the per-field embedding size for learned-embedding
	// datasets (ignored when the dataset has fixed features).
	EmbDim int
	// Hidden lists the hidden-layer widths of MLP towers.
	Hidden []int
	// Dropout is the inverted-dropout rate between hidden layers.
	Dropout float64
	// Experts is the expert count for MMoE/CGC/PLE.
	Experts int
	// Heads and HeadDim configure AutoInt's attention.
	Heads, HeadDim int
	// Seed drives parameter initialization.
	Seed int64
}

// withDefaults fills zero fields with benchmark-scale defaults (the
// paper's widths, scaled down to the synthetic benchmark sizes).
func (c Config) withDefaults() Config {
	if c.EmbDim == 0 {
		c.EmbDim = 8
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 32}
	}
	if c.Experts == 0 {
		c.Experts = 2
	}
	if c.Heads == 0 {
		c.Heads = 2
	}
	if c.HeadDim == 0 {
		c.HeadDim = 8
	}
	return c
}

// Builder constructs a model from a config.
type Builder func(Config) Model

var registry = map[string]Builder{}

// Register adds a builder under a canonical name. It panics on
// duplicates; model files register themselves in init functions.
func Register(name string, b Builder) {
	if _, dup := registry[name]; dup {
		panic("models: duplicate registration of " + name)
	}
	registry[name] = b
}

// New builds the named model. Valid names are listed by Names.
func New(name string, cfg Config) (Model, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("models: config for %q has no dataset", name)
	}
	return b(cfg.withDefaults()), nil
}

// MustNew is New for static names; it panics on error.
func MustNew(name string, cfg Config) Model {
	m, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Names lists registered model names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// rngFor derives a model-local RNG from the config seed.
func rngFor(cfg Config) *rand.Rand { return rand.New(rand.NewSource(cfg.Seed + 1)) }
