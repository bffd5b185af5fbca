package models

import (
	"math/rand"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/nn"
)

func init() {
	Register("cgc", func(cfg Config) Model { return NewCGC(cfg) })
	Register("ple", func(cfg Config) Model { return NewPLE(cfg) })
}

// cgcLayer is one Customized Gate Control extraction layer (Tang et al.,
// 2020): a pool of shared experts plus one specific expert per domain.
// For a domain, a gate mixes the shared experts with that domain's
// specific expert; a separate shared gate mixes all experts to produce
// the input of the next layer's shared path.
type cgcLayer struct {
	shared     []*nn.MLP
	specific   []*nn.MLP   // one per domain
	domainGate []*nn.Dense // per domain: in -> len(shared)+1
	sharedGate *nn.Dense   // in -> len(shared)+len(specific)
	out        int
}

func newCGCLayer(in, out, sharedExperts, domains int, dropout float64, rng *rand.Rand) *cgcLayer {
	l := &cgcLayer{out: out}
	for e := 0; e < sharedExperts; e++ {
		l.shared = append(l.shared, nn.NewMLP([]int{in, out}, nn.ReLU, dropout, rng))
	}
	for d := 0; d < domains; d++ {
		l.specific = append(l.specific, nn.NewMLP([]int{in, out}, nn.ReLU, dropout, rng))
		l.domainGate = append(l.domainGate, nn.NewDense(in, sharedExperts+1, nn.Linear, rng))
	}
	l.sharedGate = nn.NewDense(in, sharedExperts+domains, nn.Linear, rng)
	return l
}

// forwardDomain mixes the shared experts with the domain's specific
// expert under the domain gate.
func (l *cgcLayer) forwardDomain(x *autograd.Tensor, domain int, training bool, rng *rand.Rand) *autograd.Tensor {
	outs := make([]*autograd.Tensor, 0, len(l.shared)+1)
	for _, ex := range l.shared {
		outs = append(outs, autograd.ReLU(ex.Forward(x, training, rng)))
	}
	outs = append(outs, autograd.ReLU(l.specific[domain].Forward(x, training, rng)))
	weights := autograd.SoftmaxRows(l.domainGate[domain].Forward(x))
	return mixExperts(outs, weights)
}

// forwardShared mixes every expert under the shared gate (the progressive
// path feeding the next extraction level).
func (l *cgcLayer) forwardShared(x *autograd.Tensor, training bool, rng *rand.Rand) *autograd.Tensor {
	outs := make([]*autograd.Tensor, 0, len(l.shared)+len(l.specific))
	for _, ex := range l.shared {
		outs = append(outs, autograd.ReLU(ex.Forward(x, training, rng)))
	}
	for _, ex := range l.specific {
		outs = append(outs, autograd.ReLU(ex.Forward(x, training, rng)))
	}
	weights := autograd.SoftmaxRows(l.sharedGate.Forward(x))
	return mixExperts(outs, weights)
}

func mixExperts(outs []*autograd.Tensor, weights *autograd.Tensor) *autograd.Tensor {
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
	return mixed
}

func (l *cgcLayer) parameters() []*autograd.Tensor {
	var ps []*autograd.Tensor
	for _, e := range l.shared {
		ps = append(ps, e.Parameters()...)
	}
	for _, e := range l.specific {
		ps = append(ps, e.Parameters()...)
	}
	for _, g := range l.domainGate {
		ps = append(ps, g.Parameters()...)
	}
	ps = append(ps, l.sharedGate.Parameters()...)
	return ps
}

// CGC is the single-level Customized Gate Control model — the
// building block of PLE, evaluated separately in the paper's industry
// experiments (Table VIII).
type CGC struct {
	enc    *Encoder
	layer  *cgcLayer
	towers []*nn.MLP
	origin
}

// NewCGC builds the CGC baseline from cfg.
func NewCGC(cfg Config) *CGC {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	hidden := cfg.Hidden[len(cfg.Hidden)-1]
	domains := cfg.Dataset.NumDomains()
	m := &CGC{
		enc:    enc,
		layer:  newCGCLayer(enc.InputDim(), hidden, cfg.Experts, domains, cfg.Dropout, rng),
		origin: origin{cfg, rng},
	}
	for d := 0; d < domains; d++ {
		m.towers = append(m.towers, nn.NewMLP([]int{hidden, 16, 1}, nn.ReLU, 0, rng))
	}
	return m
}

// Replica implements Replicator.
func (m *CGC) Replica() Model { return NewCGC(m.cfg) }

// Forward implements Model.
func (m *CGC) Forward(b *data.Batch, training bool) *autograd.Tensor {
	mustRoute(m, b.Domain)
	x := m.enc.Concat(b)
	h := m.layer.forwardDomain(x, b.Domain, training, m.rng)
	return m.towers[b.Domain].Forward(h, training, m.rng)
}

// Parameters implements Model.
func (m *CGC) Parameters() []*autograd.Tensor {
	ps := m.enc.Parameters()
	ps = append(ps, m.layer.parameters()...)
	for _, t := range m.towers {
		ps = append(ps, t.Parameters()...)
	}
	return ps
}

// Name implements Model.
func (m *CGC) Name() string { return "CGC" }

// DomainTowers implements DomainTowered.
func (m *CGC) DomainTowers() int { return len(m.towers) }

// EmbeddingTables implements EmbeddingTabler.
func (m *CGC) EmbeddingTables() map[int]int { return m.enc.EmbeddingTables() }

// PLE is Progressive Layered Extraction (Tang et al., 2020): two stacked
// CGC extraction levels. The first level's shared mixture feeds the
// second level's experts alongside the domain mixture, progressively
// separating shared and specific information.
type PLE struct {
	enc    *Encoder
	level1 *cgcLayer
	level2 *cgcLayer
	towers []*nn.MLP
	origin
}

// NewPLE builds the PLE baseline from cfg.
func NewPLE(cfg Config) *PLE {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	hidden := cfg.Hidden[len(cfg.Hidden)-1]
	domains := cfg.Dataset.NumDomains()
	m := &PLE{
		enc:    enc,
		level1: newCGCLayer(enc.InputDim(), hidden, cfg.Experts, domains, cfg.Dropout, rng),
		level2: newCGCLayer(hidden, hidden, cfg.Experts, domains, cfg.Dropout, rng),
		origin: origin{cfg, rng},
	}
	for d := 0; d < domains; d++ {
		m.towers = append(m.towers, nn.NewMLP([]int{hidden, 16, 1}, nn.ReLU, 0, rng))
	}
	return m
}

// Replica implements Replicator.
func (m *PLE) Replica() Model { return NewPLE(m.cfg) }

// Forward implements Model.
func (m *PLE) Forward(b *data.Batch, training bool) *autograd.Tensor {
	mustRoute(m, b.Domain)
	x := m.enc.Concat(b)
	domainH := m.level1.forwardDomain(x, b.Domain, training, m.rng)
	sharedH := m.level1.forwardShared(x, training, m.rng)
	// The second level's domain path consumes the first level's domain
	// mixture; its shared experts consume the shared mixture. We follow
	// PLE's progressive routing by feeding the domain gate the domain
	// mixture and the specific expert the domain mixture, while shared
	// experts read the shared path.
	h := m.level2.forwardProgressive(domainH, sharedH, b.Domain, training, m.rng)
	return m.towers[b.Domain].Forward(h, training, m.rng)
}

// forwardProgressive is the level-2 routing: shared experts read the
// shared path, the domain's specific expert reads the domain path, and
// the domain gate (driven by the domain path) mixes them.
func (l *cgcLayer) forwardProgressive(domainX, sharedX *autograd.Tensor, domain int, training bool, rng *rand.Rand) *autograd.Tensor {
	outs := make([]*autograd.Tensor, 0, len(l.shared)+1)
	for _, ex := range l.shared {
		outs = append(outs, autograd.ReLU(ex.Forward(sharedX, training, rng)))
	}
	outs = append(outs, autograd.ReLU(l.specific[domain].Forward(domainX, training, rng)))
	weights := autograd.SoftmaxRows(l.domainGate[domain].Forward(domainX))
	return mixExperts(outs, weights)
}

// Parameters implements Model.
func (m *PLE) Parameters() []*autograd.Tensor {
	ps := m.enc.Parameters()
	ps = append(ps, m.level1.parameters()...)
	ps = append(ps, m.level2.parameters()...)
	for _, t := range m.towers {
		ps = append(ps, t.Parameters()...)
	}
	return ps
}

// Name implements Model.
func (m *PLE) Name() string { return "PLE" }

// DomainTowers implements DomainTowered.
func (m *PLE) DomainTowers() int { return len(m.towers) }

// EmbeddingTables implements EmbeddingTabler.
func (m *PLE) EmbeddingTables() map[int]int { return m.enc.EmbeddingTables() }
