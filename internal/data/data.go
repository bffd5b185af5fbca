// Package data defines the multi-domain recommendation dataset model
// used throughout the repository: domains with train/val/test
// interaction splits, a global feature storage shared by all domains
// (mirroring the Taobao MDR platform of the paper, Fig. 2), categorical
// feature schemas, and mini-batching.
package data

import (
	"fmt"
	"math/rand"
	"sort"
)

// Interaction is one user-item event with a binary click label.
type Interaction struct {
	User  int
	Item  int
	Label float64 // 1 = clicked (positive), 0 = sampled negative
}

// Split selects one of the three interaction partitions of a domain.
type Split int

// The dataset splits.
const (
	Train Split = iota
	Val
	Test
)

// String returns the split's name.
func (s Split) String() string {
	switch s {
	case Train:
		return "train"
	case Val:
		return "val"
	case Test:
		return "test"
	default:
		return fmt.Sprintf("Split(%d)", int(s))
	}
}

// Domain is one recommendation scenario: a theme page, a promotion, a
// product category. Users and items may overlap across domains.
type Domain struct {
	ID       int
	Name     string
	CTRRatio float64 // #positives / #negatives, per the paper's Eq. 23
	Train    []Interaction
	Val      []Interaction
	Test     []Interaction
}

// Samples returns the number of interactions across all splits.
func (d *Domain) Samples() int { return len(d.Train) + len(d.Val) + len(d.Test) }

// Get returns the interactions of one split.
func (d *Domain) Get(s Split) []Interaction {
	switch s {
	case Train:
		return d.Train
	case Val:
		return d.Val
	case Test:
		return d.Test
	default:
		panic("data: unknown split " + s.String())
	}
}

// Field describes one categorical feature field.
type Field struct {
	Name  string
	Vocab int
}

// Schema lists the categorical fields of users and items. The model
// input for a sample is the concatenation of the embeddings of every
// user field followed by every item field.
type Schema struct {
	UserFields []Field
	ItemFields []Field
}

// NumFields returns the total number of fields.
func (s Schema) NumFields() int { return len(s.UserFields) + len(s.ItemFields) }

// Fields returns user fields followed by item fields.
func (s Schema) Fields() []Field {
	out := make([]Field, 0, s.NumFields())
	out = append(out, s.UserFields...)
	out = append(out, s.ItemFields...)
	return out
}

// Dataset is a complete multi-domain benchmark: the global user/item
// feature storage plus per-domain interaction splits.
type Dataset struct {
	Name     string
	NumUsers int
	NumItems int
	Domains  []*Domain
	Schema   Schema

	// UserFeatures[u][f] is the categorical value of user u for user
	// field f; ItemFeatures likewise. Field 0 is the entity id itself.
	UserFeatures [][]int
	ItemFeatures [][]int

	// FixedUserVecs/FixedItemVecs, when non-nil, are frozen dense
	// feature vectors (the Taobao benchmarks fix GraphSage features
	// during training). When nil, models learn embeddings from the
	// categorical fields (the Amazon benchmarks).
	FixedUserVecs [][]float64
	FixedItemVecs [][]float64
}

// NumDomains returns the number of domains.
func (d *Dataset) NumDomains() int { return len(d.Domains) }

// HasFixedFeatures reports whether the dataset carries frozen dense
// features instead of learnable categorical embeddings.
func (d *Dataset) HasFixedFeatures() bool {
	return d.FixedUserVecs != nil && d.FixedItemVecs != nil
}

// TotalSamples sums Samples over all domains.
func (d *Dataset) TotalSamples() int {
	n := 0
	for _, dom := range d.Domains {
		n += dom.Samples()
	}
	return n
}

// Validate checks that a model can be built over the dataset and
// referential integrity: learned mode has a field of non-negative vocab
// to embed, every domain is present, every interaction references a
// valid user/item, every feature row matches the schema, labels are
// binary, and fixed feature vectors are one non-zero width for users
// and items alike. It returns the first violation found.
func (d *Dataset) Validate() error {
	for _, f := range d.Schema.Fields() {
		if f.Vocab < 0 {
			return fmt.Errorf("data: field %q has vocab %d", f.Name, f.Vocab)
		}
	}
	if !d.HasFixedFeatures() && d.Schema.NumFields() == 0 {
		return fmt.Errorf("data: no fixed features and no field to embed")
	}
	if len(d.UserFeatures) != d.NumUsers {
		return fmt.Errorf("data: %d user feature rows for %d users", len(d.UserFeatures), d.NumUsers)
	}
	if len(d.ItemFeatures) != d.NumItems {
		return fmt.Errorf("data: %d item feature rows for %d items", len(d.ItemFeatures), d.NumItems)
	}
	for u, row := range d.UserFeatures {
		if len(row) != len(d.Schema.UserFields) {
			return fmt.Errorf("data: user %d has %d fields, want %d", u, len(row), len(d.Schema.UserFields))
		}
		for f, v := range row {
			if v < 0 || v >= d.Schema.UserFields[f].Vocab {
				return fmt.Errorf("data: user %d field %d value %d outside vocab %d", u, f, v, d.Schema.UserFields[f].Vocab)
			}
		}
	}
	for it, row := range d.ItemFeatures {
		if len(row) != len(d.Schema.ItemFields) {
			return fmt.Errorf("data: item %d has %d fields, want %d", it, len(row), len(d.Schema.ItemFields))
		}
		for f, v := range row {
			if v < 0 || v >= d.Schema.ItemFields[f].Vocab {
				return fmt.Errorf("data: item %d field %d value %d outside vocab %d", it, f, v, d.Schema.ItemFields[f].Vocab)
			}
		}
	}
	for i, dom := range d.Domains {
		if dom == nil {
			return fmt.Errorf("data: domain %d is null", i)
		}
		for _, split := range []Split{Train, Val, Test} {
			for _, in := range dom.Get(split) {
				if in.User < 0 || in.User >= d.NumUsers {
					return fmt.Errorf("data: domain %d %s references user %d of %d", dom.ID, split, in.User, d.NumUsers)
				}
				if in.Item < 0 || in.Item >= d.NumItems {
					return fmt.Errorf("data: domain %d %s references item %d of %d", dom.ID, split, in.Item, d.NumItems)
				}
				if in.Label != 0 && in.Label != 1 {
					return fmt.Errorf("data: domain %d %s has non-binary label %g", dom.ID, split, in.Label)
				}
			}
		}
	}
	if d.HasFixedFeatures() {
		if len(d.FixedUserVecs) != d.NumUsers || len(d.FixedItemVecs) != d.NumItems {
			return fmt.Errorf("data: fixed feature rows %d/%d for %d users / %d items",
				len(d.FixedUserVecs), len(d.FixedItemVecs), d.NumUsers, d.NumItems)
		}
		if d.NumUsers == 0 || d.NumItems == 0 {
			return fmt.Errorf("data: fixed features need a user and an item")
		}
		// The encoder concatenates a user's and an item's vector into one
		// input row: every vector of both tables has one non-zero width.
		vecs := append(d.FixedUserVecs[:d.NumUsers:d.NumUsers], d.FixedItemVecs...)
		for i, v := range vecs {
			if len(v) != len(vecs[0]) || len(v) == 0 {
				return fmt.Errorf("data: fixed vector %d (users, then items) has width %d, user 0's has %d", i, len(v), len(vecs[0]))
			}
		}
	}
	return nil
}

// Batch is one mini-batch of interactions from a single domain, with
// categorical field values already resolved from the global feature
// storage.
type Batch struct {
	Domain int
	Users  []int
	Items  []int
	// FieldValues[f][i] is sample i's value for field f, ordered as
	// Schema.Fields() (user fields then item fields).
	FieldValues [][]int
	Labels      []float64
}

// Size returns the number of samples in the batch.
func (b *Batch) Size() int { return len(b.Labels) }

// MakeBatch resolves the given interactions of one domain into a Batch.
func (d *Dataset) MakeBatch(domainID int, ins []Interaction) *Batch {
	nu := len(d.Schema.UserFields)
	ni := len(d.Schema.ItemFields)
	b := &Batch{
		Domain:      domainID,
		Users:       make([]int, len(ins)),
		Items:       make([]int, len(ins)),
		FieldValues: make([][]int, nu+ni),
		Labels:      make([]float64, len(ins)),
	}
	for f := range b.FieldValues {
		b.FieldValues[f] = make([]int, len(ins))
	}
	for i, in := range ins {
		b.Users[i] = in.User
		b.Items[i] = in.Item
		b.Labels[i] = in.Label
		for f := 0; f < nu; f++ {
			b.FieldValues[f][i] = d.UserFeatures[in.User][f]
		}
		for f := 0; f < ni; f++ {
			b.FieldValues[nu+f][i] = d.ItemFeatures[in.Item][f]
		}
	}
	return b
}

// Batches splits one domain split into shuffled mini-batches. The rng
// may be nil for deterministic, unshuffled order.
func (d *Dataset) Batches(domainID int, split Split, batchSize int, rng *rand.Rand) []*Batch {
	if batchSize <= 0 {
		panic("data: non-positive batch size")
	}
	ins := d.Domains[domainID].Get(split)
	order := make([]int, len(ins))
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var out []*Batch
	for start := 0; start < len(order); start += batchSize {
		end := start + batchSize
		if end > len(order) {
			end = len(order)
		}
		chunk := make([]Interaction, 0, end-start)
		for _, idx := range order[start:end] {
			chunk = append(chunk, ins[idx])
		}
		out = append(out, d.MakeBatch(domainID, chunk))
	}
	return out
}

// FullBatch returns the entire split of a domain as one batch (used for
// evaluation).
func (d *Dataset) FullBatch(domainID int, split Split) *Batch {
	return d.MakeBatch(domainID, d.Domains[domainID].Get(split))
}

// DomainStat summarizes one domain for the statistics tables (Tables
// II-IV of the paper).
type DomainStat struct {
	ID         int
	Name       string
	Samples    int
	Percentage float64
	CTRRatio   float64
}

// Stats computes per-domain statistics sorted by domain ID.
func (d *Dataset) Stats() []DomainStat {
	total := d.TotalSamples()
	out := make([]DomainStat, 0, len(d.Domains))
	for _, dom := range d.Domains {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(dom.Samples()) / float64(total)
		}
		out = append(out, DomainStat{
			ID:         dom.ID,
			Name:       dom.Name,
			Samples:    dom.Samples(),
			Percentage: pct,
			CTRRatio:   dom.CTRRatio,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OverallStat is the Table I row for a dataset.
type OverallStat struct {
	Name             string
	NumDomains       int
	NumUsers         int
	NumItems         int
	TrainSamples     int
	ValSamples       int
	TestSamples      int
	SamplesPerDomain int
}

// Overall computes the Table I summary row.
func (d *Dataset) Overall() OverallStat {
	s := OverallStat{
		Name:       d.Name,
		NumDomains: len(d.Domains),
		NumUsers:   d.NumUsers,
		NumItems:   d.NumItems,
	}
	for _, dom := range d.Domains {
		s.TrainSamples += len(dom.Train)
		s.ValSamples += len(dom.Val)
		s.TestSamples += len(dom.Test)
	}
	if len(d.Domains) > 0 {
		s.SamplesPerDomain = d.TotalSamples() / len(d.Domains)
	}
	return s
}
