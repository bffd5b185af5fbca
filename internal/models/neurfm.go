package models

import (
	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/nn"
)

func init() {
	Register("neurfm", func(cfg Config) Model { return NewNeurFM(cfg) })
}

// NeurFM is the Neural Factorization Machine (He & Chua, 2017): field
// embeddings are pooled by the bi-interaction layer (pairwise elementwise
// products summed over field pairs) and fed to an MLP, combined with the
// model's first-order linear term at the logit level.
type NeurFM struct {
	enc        *Encoder
	firstEmbs  []*nn.Embedding // linear term per field (learned mode)
	firstDense *nn.Dense       // fixed mode linear term
	deep       *nn.MLP
	origin
}

// NewNeurFM builds the NeurFM baseline from cfg.
func NewNeurFM(cfg Config) *NeurFM {
	cfg = cfg.withDefaults()
	rng := rngFor(cfg)
	enc := NewEncoder(cfg.Dataset, cfg.EmbDim, rng)
	m := &NeurFM{enc: enc, origin: origin{cfg, rng}}
	if cfg.Dataset.HasFixedFeatures() {
		m.firstDense = nn.NewDense(enc.InputDim(), 1, nn.Linear, rng)
	} else {
		for _, f := range cfg.Dataset.Schema.Fields() {
			m.firstEmbs = append(m.firstEmbs, nn.NewEmbedding(f.Vocab, 1, 0.01, rng))
		}
	}
	dims := append([]int{enc.FieldDim()}, cfg.Hidden...)
	dims = append(dims, 1)
	m.deep = nn.NewMLP(dims, nn.ReLU, cfg.Dropout, rng)
	return m
}

// Replica implements Replicator.
func (m *NeurFM) Replica() Model { return NewNeurFM(m.cfg) }

func (m *NeurFM) firstOrder(b *data.Batch) *autograd.Tensor {
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
func (m *NeurFM) Forward(b *data.Batch, training bool) *autograd.Tensor {
	flat := m.enc.Concat(b)
	pooled := autograd.BiInteraction(flat, m.enc.NumFields(), m.enc.FieldDim())
	deep := m.deep.Forward(pooled, training, m.rng)
	return autograd.Add(m.firstOrder(b), deep)
}

// Parameters implements Model.
func (m *NeurFM) Parameters() []*autograd.Tensor {
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
func (m *NeurFM) Name() string { return "NeurFM" }

// EmbeddingTables implements EmbeddingTabler: the encoder's tables plus
// the per-field linear-term tables (vocab x 1) that follow them.
func (m *NeurFM) EmbeddingTables() map[int]int {
	tables := m.enc.EmbeddingTables()
	base := len(m.enc.Parameters())
	for f := range m.firstEmbs {
		tables[base+f] = f
	}
	return tables
}
