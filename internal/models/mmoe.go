package models

import (
	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/nn"
)

func init() {
	Register("mmoe", func(cfg Config) Model { return NewMMoE(cfg) })
}

// MMoE is the Multi-gate Mixture-of-Experts (Ma et al., 2018): a pool of
// expert networks shared across domains, with one gating network per
// domain that mixes expert outputs before the domain's tower.
type MMoE struct {
	enc     *Encoder
	experts []*nn.MLP
	gates   []*nn.Dense // per domain: input -> #experts, softmaxed
	towers  []*nn.MLP
	origin
}

// NewMMoE builds the MMoE baseline from cfg.
func NewMMoE(cfg Config) *MMoE {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	m := &MMoE{enc: enc, origin: origin{cfg, rng}}
	expertDims := append([]int{enc.InputDim()}, cfg.Hidden...)
	for e := 0; e < cfg.Experts; e++ {
		m.experts = append(m.experts, nn.NewMLP(expertDims, nn.ReLU, cfg.Dropout, rng))
	}
	expertOut := cfg.Hidden[len(cfg.Hidden)-1]
	for d := 0; d < cfg.Dataset.NumDomains(); d++ {
		m.gates = append(m.gates, nn.NewDense(enc.InputDim(), cfg.Experts, nn.Linear, rng))
		m.towers = append(m.towers, nn.NewMLP([]int{expertOut, 16, 1}, nn.ReLU, 0, rng))
	}
	return m
}

// Replica implements Replicator.
func (m *MMoE) Replica() Model { return NewMMoE(m.cfg) }

// Forward implements Model.
func (m *MMoE) Forward(b *data.Batch, training bool) *autograd.Tensor {
	mustRoute(m, b.Domain)
	x := m.enc.Concat(b)
	outs := make([]*autograd.Tensor, len(m.experts))
	for e, ex := range m.experts {
		outs[e] = autograd.ReLU(ex.Forward(x, training, m.rng))
	}
	weights := autograd.SoftmaxRows(m.gates[b.Domain].Forward(x))
	var mixed *autograd.Tensor
	for e, out := range outs {
		w := autograd.SliceCols(weights, e, e+1)
		term := autograd.MulColBroadcast(out, w)
		if mixed == nil {
			mixed = term
		} else {
			mixed = autograd.Add(mixed, term)
		}
	}
	return m.towers[b.Domain].Forward(mixed, training, m.rng)
}

// Parameters implements Model.
func (m *MMoE) Parameters() []*autograd.Tensor {
	ps := m.enc.Parameters()
	for _, e := range m.experts {
		ps = append(ps, e.Parameters()...)
	}
	for _, g := range m.gates {
		ps = append(ps, g.Parameters()...)
	}
	for _, t := range m.towers {
		ps = append(ps, t.Parameters()...)
	}
	return ps
}

// Name implements Model.
func (m *MMoE) Name() string { return "MMOE" }

// DomainTowers implements DomainTowered.
func (m *MMoE) DomainTowers() int { return len(m.towers) }

// EmbeddingTables implements EmbeddingTabler.
func (m *MMoE) EmbeddingTables() map[int]int { return m.enc.EmbeddingTables() }
