package models

import (
	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/nn"
)

func init() {
	Register("wdl", func(cfg Config) Model { return NewWDL(cfg) })
}

// WDL is Wide & Deep Learning (Cheng et al., 2016): a generalized linear
// "wide" component that memorizes feature-level effects plus a deep MLP
// that generalizes, combined at the logit level.
//
// In learned-embedding mode the wide part is a per-field weight table
// (the linear term of a factorization machine); in fixed-feature mode it
// is a linear layer over the frozen features.
type WDL struct {
	enc       *Encoder
	wideEmbs  []*nn.Embedding // vocab x 1 per field (learned mode)
	wideDense *nn.Dense       // fixed mode
	wideBias  *autograd.Tensor
	deep      *nn.MLP
	origin
}

// NewWDL builds the Wide & Deep baseline from cfg.
func NewWDL(cfg Config) *WDL {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	m := &WDL{
		enc:      enc,
		wideBias: autograd.ParamZeros(1, 1),
		origin:   origin{cfg, rng},
	}
	if cfg.Dataset.HasFixedFeatures() {
		m.wideDense = nn.NewDense(enc.InputDim(), 1, nn.Linear, rng)
	} else {
		for _, f := range cfg.Dataset.Schema.Fields() {
			m.wideEmbs = append(m.wideEmbs, nn.NewEmbedding(f.Vocab, 1, 0.01, rng))
		}
	}
	dims := append([]int{enc.InputDim()}, cfg.Hidden...)
	dims = append(dims, 1)
	m.deep = nn.NewMLP(dims, nn.ReLU, cfg.Dropout, rng)
	return m
}

// Replica implements Replicator.
func (m *WDL) Replica() Model { return NewWDL(m.cfg) }

// wide computes the linear component's logit (Nx1).
func (m *WDL) wide(b *data.Batch) *autograd.Tensor {
	if m.wideDense != nil {
		return m.wideDense.Forward(m.enc.Concat(b))
	}
	var acc *autograd.Tensor
	for f, emb := range m.wideEmbs {
		term := emb.Lookup(b.FieldValues[f])
		if acc == nil {
			acc = term
		} else {
			acc = autograd.Add(acc, term)
		}
	}
	n := len(b.Labels)
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = 1
	}
	return autograd.Add(acc, autograd.MatMul(autograd.New(n, 1, bias), m.wideBias))
}

// Forward implements Model.
func (m *WDL) Forward(b *data.Batch, training bool) *autograd.Tensor {
	deep := m.deep.Forward(m.enc.Concat(b), training, m.rng)
	return autograd.Add(m.wide(b), deep)
}

// Parameters implements Model.
func (m *WDL) Parameters() []*autograd.Tensor {
	ps := m.enc.Parameters()
	for _, e := range m.wideEmbs {
		ps = append(ps, e.Parameters()...)
	}
	if m.wideDense != nil {
		ps = append(ps, m.wideDense.Parameters()...)
	}
	ps = append(ps, m.wideBias)
	return append(ps, m.deep.Parameters()...)
}

// Name implements Model.
func (m *WDL) Name() string { return "WDL" }

// EmbeddingTables implements EmbeddingTabler: the encoder's tables plus
// the per-field wide tables (vocab x 1) that follow them.
func (m *WDL) EmbeddingTables() map[int]int {
	tables := m.enc.EmbeddingTables()
	base := len(m.enc.Parameters())
	for f := range m.wideEmbs {
		tables[base+f] = f
	}
	return tables
}
