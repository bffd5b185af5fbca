package models

import (
	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/nn"
)

func init() {
	Register("mlp", func(cfg Config) Model { return NewMLP(cfg) })
	Register("raw", func(cfg Config) Model { return NewRAW(cfg) })
}

// MLP is the simplest baseline: field embeddings concatenated into a
// multi-layer perceptron. It is also the base structure the paper pairs
// with MAMDR in Table V ("MLP+MAMDR").
type MLP struct {
	enc *Encoder
	net *nn.MLP
	origin
}

// NewMLP builds the MLP baseline from cfg.
func NewMLP(cfg Config) *MLP {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	dims := append([]int{enc.InputDim()}, cfg.Hidden...)
	dims = append(dims, 1)
	return &MLP{
		enc:    enc,
		net:    nn.NewMLP(dims, nn.ReLU, cfg.Dropout, rng),
		origin: origin{cfg, rng},
	}
}

// Replica implements Replicator.
func (m *MLP) Replica() Model { return NewMLP(m.cfg) }

// Forward implements Model.
func (m *MLP) Forward(b *data.Batch, training bool) *autograd.Tensor {
	return m.net.Forward(m.enc.Concat(b), training, m.rng)
}

// Parameters implements Model.
func (m *MLP) Parameters() []*autograd.Tensor {
	return append(m.enc.Parameters(), m.net.Parameters()...)
}

// Name implements Model.
func (m *MLP) Name() string { return "MLP" }

// EmbeddingTables implements EmbeddingTabler: the encoder's tables lead
// Parameters(), so its map applies unchanged.
func (m *MLP) EmbeddingTables() map[int]int { return m.enc.EmbeddingTables() }

// RAW is the compact production-style base model used in the paper's
// industry experiments (Tables VIII-IX), where MAMDR is applied on top of
// the existing serving model. Structurally it is a narrow single-hidden-
// layer network — intentionally simpler than the benchmark MLP.
type RAW struct {
	enc *Encoder
	l1  *nn.Dense
	l2  *nn.Dense
	origin
}

// NewRAW builds the RAW model from cfg.
func NewRAW(cfg Config) *RAW {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	hidden := 32
	return &RAW{
		enc:    enc,
		l1:     nn.NewDense(enc.InputDim(), hidden, nn.ReLU, rng),
		l2:     nn.NewDense(hidden, 1, nn.Linear, rng),
		origin: origin{cfg, rng},
	}
}

// Replica implements Replicator.
func (m *RAW) Replica() Model { return NewRAW(m.cfg) }

// Forward implements Model.
func (m *RAW) Forward(b *data.Batch, training bool) *autograd.Tensor {
	return m.l2.Forward(m.l1.Forward(m.enc.Concat(b)))
}

// Parameters implements Model.
func (m *RAW) Parameters() []*autograd.Tensor {
	ps := m.enc.Parameters()
	ps = append(ps, m.l1.Parameters()...)
	return append(ps, m.l2.Parameters()...)
}

// Name implements Model.
func (m *RAW) Name() string { return "RAW" }

// EmbeddingTables implements EmbeddingTabler.
func (m *RAW) EmbeddingTables() map[int]int { return m.enc.EmbeddingTables() }
