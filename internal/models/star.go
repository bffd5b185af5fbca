package models

import (
	"math/rand"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/nn"
)

func init() {
	Register("star", func(cfg Config) Model { return NewSTAR(cfg) })
}

// starLayer is one layer of STAR's star-topology fully connected
// network (Sheng et al., 2021): a shared centered weight matrix combined
// with a domain-specific matrix by elementwise multiplication, and a
// shared bias combined with a domain bias by addition:
//
//	W_eff = W_shared ⊙ W_domain,   b_eff = b_shared + b_domain.
//
// Domain weights start at one and domain biases at zero, so training
// begins from the pure shared network.
type starLayer struct {
	wShared *autograd.Tensor
	bShared *autograd.Tensor
	wDomain []*autograd.Tensor
	bDomain []*autograd.Tensor
	act     nn.Activation
}

func newStarLayer(in, out, domains int, act nn.Activation, rng *rand.Rand) *starLayer {
	l := &starLayer{
		wShared: autograd.ParamXavier(in, out, rng),
		bShared: autograd.ParamZeros(1, out),
		act:     act,
	}
	for d := 0; d < domains; d++ {
		ones := make([]float64, in*out)
		for i := range ones {
			ones[i] = 1
		}
		l.wDomain = append(l.wDomain, autograd.Param(in, out, ones))
		l.bDomain = append(l.bDomain, autograd.ParamZeros(1, out))
	}
	return l
}

func (l *starLayer) forward(x *autograd.Tensor, domain int) *autograd.Tensor {
	w := autograd.Mul(l.wShared, l.wDomain[domain])
	b := autograd.Add(l.bShared, l.bDomain[domain])
	switch l.act {
	case nn.ReLU:
		return autograd.DenseAct(x, w, b, autograd.ActReLU, 0)
	case nn.Linear:
		return autograd.DenseAct(x, w, b, autograd.ActIdentity, 0)
	default:
		panic("models: unsupported STAR activation")
	}
}

func (l *starLayer) parameters() []*autograd.Tensor {
	ps := []*autograd.Tensor{l.wShared, l.bShared}
	for d := range l.wDomain {
		ps = append(ps, l.wDomain[d], l.bDomain[d])
	}
	return ps
}

// STAR is the Star Topology Adaptive Recommender, the state-of-the-art
// MDR baseline of the paper. It combines the star-topology FCN with
// partitioned normalization over the input representation and the
// original's auxiliary network: a small shared MLP that reads the domain
// indicator embedding concatenated with the input and adds its logit to
// the main network's output, letting the model capture domain identity
// directly.
type STAR struct {
	enc       *Encoder
	norm      *nn.PartitionedNorm
	layers    []*starLayer
	domainEmb *nn.Embedding
	aux       *nn.MLP
	origin
}

// NewSTAR builds the STAR baseline from cfg, with both shared and
// specific networks using cfg.Hidden widths as in the paper's setup.
func NewSTAR(cfg Config) *STAR {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	domains := cfg.Dataset.NumDomains()
	const domainEmbDim = 8
	m := &STAR{
		enc:       enc,
		norm:      nn.NewPartitionedNorm(enc.InputDim(), domains),
		domainEmb: nn.NewEmbedding(domains, domainEmbDim, 0.05, rng),
		aux:       nn.NewMLP([]int{domainEmbDim + enc.InputDim(), 16, 1}, nn.ReLU, 0, rng),
		origin:    origin{cfg, rng},
	}
	dims := append([]int{enc.InputDim()}, cfg.Hidden...)
	dims = append(dims, 1)
	for i := 0; i+1 < len(dims); i++ {
		act := nn.ReLU
		if i+2 == len(dims) {
			act = nn.Linear
		}
		m.layers = append(m.layers, newStarLayer(dims[i], dims[i+1], domains, act, rng))
	}
	return m
}

// Replica implements Replicator.
func (m *STAR) Replica() Model { return NewSTAR(m.cfg) }

// Forward implements Model.
func (m *STAR) Forward(b *data.Batch, training bool) *autograd.Tensor {
	mustRoute(m, b.Domain)
	x := m.norm.Forward(m.enc.Concat(b), b.Domain)
	h := x
	for _, l := range m.layers {
		h = l.forward(h, b.Domain)
	}
	// Auxiliary network: domain-indicator embedding + input features.
	ids := make([]int, b.Size())
	for i := range ids {
		ids[i] = b.Domain
	}
	auxIn := autograd.ConcatCols(m.domainEmb.Lookup(ids), x)
	return autograd.Add(h, m.aux.Forward(auxIn, training, m.rng))
}

// Parameters implements Model.
func (m *STAR) Parameters() []*autograd.Tensor {
	ps := m.enc.Parameters()
	ps = append(ps, m.norm.Parameters()...)
	for _, l := range m.layers {
		ps = append(ps, l.parameters()...)
	}
	ps = append(ps, m.domainEmb.Parameters()...)
	return append(ps, m.aux.Parameters()...)
}

// Name implements Model.
func (m *STAR) Name() string { return "Star" }

// DomainTowers implements DomainTowered.
func (m *STAR) DomainTowers() int { return m.domainEmb.Vocab() }

// EmbeddingTables implements EmbeddingTabler. The domain-indicator table
// is intentionally excluded: it is indexed by batch domain, not by a
// schema field, and is tiny, so it synchronizes densely.
func (m *STAR) EmbeddingTables() map[int]int { return m.enc.EmbeddingTables() }
