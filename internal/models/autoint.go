package models

import (
	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/nn"
)

func init() {
	Register("autoint", func(cfg Config) Model { return NewAutoInt(cfg) })
}

// AutoInt (Song et al., 2019) learns high-order feature interactions
// with multi-head self-attention over field embeddings: fields attend to
// each other through stacked interacting layers, and the attended field
// representations are concatenated into a linear output layer.
type AutoInt struct {
	enc    *Encoder
	layers []*nn.InteractingLayer
	out    *nn.Dense
	origin
}

// NewAutoInt builds the AutoInt baseline from cfg with two stacked
// interacting layers.
func NewAutoInt(cfg Config) *AutoInt {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	l1 := nn.NewInteractingLayer(enc.FieldDim(), cfg.Heads, cfg.HeadDim, rng)
	l2 := nn.NewInteractingLayer(l1.OutDim(), cfg.Heads, cfg.HeadDim, rng)
	return &AutoInt{
		enc:    enc,
		layers: []*nn.InteractingLayer{l1, l2},
		out:    nn.NewDense(enc.NumFields()*l2.OutDim(), 1, nn.Linear, rng),
		origin: origin{cfg, rng},
	}
}

// Replica implements Replicator.
func (m *AutoInt) Replica() Model { return NewAutoInt(m.cfg) }

// Forward implements Model.
func (m *AutoInt) Forward(b *data.Batch, training bool) *autograd.Tensor {
	fields := m.enc.Fields(b)
	for _, l := range m.layers {
		fields = l.Forward(fields)
	}
	return m.out.Forward(autograd.ConcatCols(fields...))
}

// Parameters implements Model.
func (m *AutoInt) Parameters() []*autograd.Tensor {
	ps := m.enc.Parameters()
	for _, l := range m.layers {
		ps = append(ps, l.Parameters()...)
	}
	return append(ps, m.out.Parameters()...)
}

// Name implements Model.
func (m *AutoInt) Name() string { return "AutoInt" }

// EmbeddingTables implements EmbeddingTabler.
func (m *AutoInt) EmbeddingTables() map[int]int { return m.enc.EmbeddingTables() }
