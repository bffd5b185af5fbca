package models

import (
	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/nn"
)

func init() {
	Register("deepfm", func(cfg Config) Model { return NewDeepFM(cfg) })
}

// DeepFM (Guo et al., 2017) combines a factorization machine with a deep
// network sharing the same field embeddings:
//
//	logit = FM_first_order + FM_second_order + MLP(concat(fields))
type DeepFM struct {
	enc        *Encoder
	firstEmbs  []*nn.Embedding
	firstDense *nn.Dense
	deep       *nn.MLP
	origin
}

// NewDeepFM builds the DeepFM baseline from cfg.
func NewDeepFM(cfg Config) *DeepFM {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	m := &DeepFM{enc: enc, origin: origin{cfg, rng}}
	if cfg.Dataset.HasFixedFeatures() {
		m.firstDense = nn.NewDense(enc.InputDim(), 1, nn.Linear, rng)
	} else {
		for _, f := range cfg.Dataset.Schema.Fields() {
			m.firstEmbs = append(m.firstEmbs, nn.NewEmbedding(f.Vocab, 1, 0.01, rng))
		}
	}
	dims := append([]int{enc.InputDim()}, cfg.Hidden...)
	dims = append(dims, 1)
	m.deep = nn.NewMLP(dims, nn.ReLU, cfg.Dropout, rng)
	return m
}

// Replica implements Replicator.
func (m *DeepFM) Replica() Model { return NewDeepFM(m.cfg) }

func (m *DeepFM) firstOrder(b *data.Batch) *autograd.Tensor {
	if m.firstDense != nil {
		return m.firstDense.Forward(m.enc.Concat(b))
	}
	var acc *autograd.Tensor
	for f, emb := range m.firstEmbs {
		term := emb.Lookup(b.FieldValues[f])
		if acc == nil {
			acc = term
		} else {
			acc = autograd.Add(acc, term)
		}
	}
	return acc
}

// Forward implements Model.
func (m *DeepFM) Forward(b *data.Batch, training bool) *autograd.Tensor {
	flat := m.enc.Concat(b)
	second := autograd.FMSecondOrder(flat, m.enc.NumFields(), m.enc.FieldDim())
	deep := m.deep.Forward(flat, training, m.rng)
	return autograd.Add(autograd.Add(m.firstOrder(b), second), deep)
}

// Parameters implements Model.
func (m *DeepFM) Parameters() []*autograd.Tensor {
	ps := m.enc.Parameters()
	for _, e := range m.firstEmbs {
		ps = append(ps, e.Parameters()...)
	}
	if m.firstDense != nil {
		ps = append(ps, m.firstDense.Parameters()...)
	}
	return append(ps, m.deep.Parameters()...)
}

// Name implements Model.
func (m *DeepFM) Name() string { return "DeepFM" }

// EmbeddingTables implements EmbeddingTabler: the encoder's tables plus
// the per-field first-order tables (vocab x 1) that follow them.
func (m *DeepFM) EmbeddingTables() map[int]int {
	tables := m.enc.EmbeddingTables()
	base := len(m.enc.Parameters())
	for f := range m.firstEmbs {
		tables[base+f] = f
	}
	return tables
}
