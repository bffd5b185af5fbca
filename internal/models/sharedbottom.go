package models

import (
	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/nn"
)

func init() {
	Register("sharedbottom", func(cfg Config) Model { return NewSharedBottom(cfg) })
}

// SharedBottom is the classic hard-parameter-sharing multi-task
// structure applied to MDR: one bottom network shared by all domains
// and one small tower network per domain.
type SharedBottom struct {
	enc    *Encoder
	bottom *nn.MLP
	towers []*nn.MLP
	origin
}

// NewSharedBottom builds the Shared-Bottom baseline; the tower width
// follows the paper's configuration (a single compact hidden layer).
func NewSharedBottom(cfg Config) *SharedBottom {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	bottomDims := append([]int{enc.InputDim()}, cfg.Hidden...)
	m := &SharedBottom{
		enc:    enc,
		bottom: nn.NewMLP(bottomDims, nn.ReLU, cfg.Dropout, rng),
		origin: origin{cfg, rng},
	}
	bottomOut := cfg.Hidden[len(cfg.Hidden)-1]
	for d := 0; d < cfg.Dataset.NumDomains(); d++ {
		m.towers = append(m.towers, nn.NewMLP([]int{bottomOut, 16, 1}, nn.ReLU, 0, rng))
	}
	return m
}

// Replica implements Replicator.
func (m *SharedBottom) Replica() Model { return NewSharedBottom(m.cfg) }

// Forward implements Model, routing through the batch's domain tower.
func (m *SharedBottom) Forward(b *data.Batch, training bool) *autograd.Tensor {
	mustRoute(m, b.Domain)
	h := m.bottom.Forward(m.enc.Concat(b), training, m.rng)
	h = autograd.ReLU(h)
	return m.towers[b.Domain].Forward(h, training, m.rng)
}

// Parameters implements Model.
func (m *SharedBottom) Parameters() []*autograd.Tensor {
	ps := m.enc.Parameters()
	ps = append(ps, m.bottom.Parameters()...)
	for _, t := range m.towers {
		ps = append(ps, t.Parameters()...)
	}
	return ps
}

// Name implements Model.
func (m *SharedBottom) Name() string { return "Shared-Bottom" }

// DomainTowers implements DomainTowered.
func (m *SharedBottom) DomainTowers() int { return len(m.towers) }

// EmbeddingTables implements EmbeddingTabler.
func (m *SharedBottom) EmbeddingTables() map[int]int { return m.enc.EmbeddingTables() }
