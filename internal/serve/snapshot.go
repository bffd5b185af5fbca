// This file is the serving snapshot representation: per-domain lazy
// composition of θ_S + θ_d in the form models bind to by reference
// (paramvec.Bound), with embedding rows served either as float sums or
// through the int8 row codec (internal/quant).
//
// A snapshot holds only references to the state's shared and specific
// vectors (immutable once published). What a domain materializes on
// first use is the sum of its dense segments — a few thousand floats —
// plus one row source per embedding table; under int8 the composed
// tables are additionally quantized. Racing composers compute
// bit-identical values (composition is deterministic), so the CAS
// loser simply adopts the winner's copy.

package serve

import (
	"fmt"
	"sync/atomic"

	"mamdr/internal/autograd"
	"mamdr/internal/core"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/quant"
)

// snapshot is the immutable view predictions serve from. The parameter
// vectors it references are never written after publication, so any
// number of replicas may read them concurrently; the lazily composed
// per-domain entries are write-once behind an atomic pointer.
type snapshot struct {
	// shared and specific reference the published state's vectors;
	// domain d serves shared + specific[d] (Eq. 4).
	shared   paramvec.Vector
	specific []paramvec.Vector
	names    []string
	layout   *layout
	// domains[d] caches domain d's composition; nil until first use.
	domains []atomic.Pointer[paramvec.Bound]
}

// layout is what composing needs to know about the served model, fixed
// for the server's lifetime.
type layout struct {
	// model is the model the server was built over, and params its
	// tensors; both are read for structure only — name, shapes, domain
	// capacity — since a pooled model's Data may be bound elsewhere at
	// any moment. Every published state shares it.
	model  models.Model
	params []*autograd.Tensor
	// tables keys the indices of params that are embedding tables (the
	// models.EmbeddingTabler map; empty on fixed-feature presets).
	tables map[int]int
	// int8 selects int8 row storage (Options.SnapshotQuant).
	int8 bool
	// spec is what the boot state was trained on: the dataset whose
	// features the server resolves. A published checkpoint must match.
	spec framework.Spec
}

// validate checks a candidate state's vectors align with the served
// model tensor for tensor — a mismatched vector would serve garbage
// through the bound replicas.
func (l *layout) validate(shared paramvec.Vector, specific []paramvec.Vector) error {
	if err := l.aligned(shared); err != nil {
		return fmt.Errorf("serve: new state's shared vector %w", err)
	}
	for d, vec := range specific {
		if err := l.aligned(vec); err != nil {
			return fmt.Errorf("serve: new state's specific vector %d %w", d, err)
		}
	}
	return nil
}

func (l *layout) aligned(vec paramvec.Vector) error {
	if len(vec) != len(l.params) {
		return fmt.Errorf("has %d tensors, the served model has %d", len(vec), len(l.params))
	}
	for t, p := range l.params {
		if len(vec[t]) != p.Size() {
			return fmt.Errorf("tensor %d has %d entries, the served model has %d", t, len(vec[t]), p.Size())
		}
	}
	return nil
}

// numDomains reports how many domains the snapshot serves.
func (sn *snapshot) numDomains() int { return len(sn.specific) }

// comp returns domain d's composition, materializing it on first use.
func (sn *snapshot) comp(d int) *paramvec.Bound {
	if c := sn.domains[d].Load(); c != nil {
		return c
	}
	c := sn.composeDomain(d)
	if sn.domains[d].CompareAndSwap(nil, c) {
		return c
	}
	// Lost the race: both compositions are bit-identical, but adopting
	// the winner keeps exactly one backing array alive.
	return sn.domains[d].Load()
}

func (sn *snapshot) composeDomain(d int) *paramvec.Bound {
	l := sn.layout
	c := paramvec.SumBound(l.params, l.tables, sn.shared, sn.specific[d])
	if l.int8 {
		for p := range l.tables {
			// Sum of this one segment; the floats live only until they
			// are encoded.
			full := paramvec.Sum(sn.shared[p:p+1], sn.specific[d][p:p+1])[0]
			// A quant.Table is its own row source: each lookup decodes
			// its row straight into the gather buffer.
			c.Rows[p] = quant.Quantize(full, l.params[p].Rows, l.params[p].Cols)
		}
	}
	return &c
}

// extend appends one domain without touching the published snapshot
// (capped appends: the old slices stay immutable) and carries over
// every already-materialized composition: existing domains' inputs
// are unchanged.
func (sn *snapshot) extend(specific paramvec.Vector, id int) *snapshot {
	n := len(sn.specific)
	out := &snapshot{
		shared:   sn.shared,
		specific: append(sn.specific[:n:n], specific),
		names:    append(sn.names[:n:n], fmt.Sprintf("runtime-%d", id)),
		layout:   sn.layout,
		domains:  make([]atomic.Pointer[paramvec.Bound], n+1),
	}
	for d := 0; d < n; d++ {
		if c := sn.domains[d].Load(); c != nil {
			out.domains[d].Store(c)
		}
	}
	return out
}

// composeState wraps an arbitrary state as a servable snapshot — the
// publish path does this off the request path before anything is
// installed. Composition itself is deferred per domain.
func (s *Server) composeState(st *core.State) *snapshot {
	sn := &snapshot{
		shared:   st.Shared,
		specific: append([]paramvec.Vector(nil), st.Specific...),
		names:    make([]string, len(st.Specific)),
		layout:   s.layout,
		domains:  make([]atomic.Pointer[paramvec.Bound], len(st.Specific)),
	}
	for d := range sn.names {
		if d < len(s.dataset.Domains) {
			sn.names[d] = s.dataset.Domains[d].Name
		} else {
			sn.names[d] = fmt.Sprintf("runtime-%d", d)
		}
	}
	return sn
}
