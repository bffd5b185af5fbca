// This file is the serving snapshot representation: per-domain lazy
// composition of θ_S + θ_d in the form models bind to by reference
// (paramvec.Bound), with embedding rows served either as float sums or
// through the int8 row codec (internal/quant).
//
// A snapshot holds θ_S and every θ_d as it was handed over, never
// copied: a state published in memory as its dense vectors, a
// checkpoint file as what the file stores — each θ_d table's stored
// rows (paramvec.Sparse), a few percent of the table. What a domain
// materializes on first use is the sum of its dense segments — a few
// thousand floats — plus one row source per embedding table. Under
// int8, θ_S's tables are quantized once per snapshot and a domain
// re-encodes only the rows its θ_d stores (quant.Patch). Racing
// composers compute bit-identical values (composition is
// deterministic), so the CAS loser simply adopts the winner's copy.

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
	// shared is θ_S. Domain d serves shared + θ_d (Eq. 4), where θ_d is
	// the paramvec.Sparse {specific[d], tables[d]}: a domain handed in
	// memory has its dense vector in specific[d] and no tables[d]; one
	// read from a file or registered at runtime holds each embedding
	// table as its stored rows in tables[d].
	shared   paramvec.Vector
	specific []paramvec.Vector
	tables   [][]paramvec.Table
	// quantized holds θ_S's tables quantized, keyed like layout.tables;
	// nil unless int8.
	quantized map[int]*quant.Table
	names     []string
	layout    *layout
	// domains[d] caches domain d's composition; nil until first use.
	domains []atomic.Pointer[paramvec.Bound]
}

// layout is what composing needs to know about the served model, fixed
// for the server's lifetime.
type layout struct {
	// Layout is the served model's tensor layout: every published state
	// is checked, and every published checkpoint decoded, against it.
	models.Layout
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
	// emptyDense and emptyTables are the empty θ_i every domain
	// registered at runtime shares: zero dense segments and tables with
	// no stored rows.
	emptyDense  paramvec.Vector
	emptyTables []paramvec.Table
	// spec is what the boot state was trained on: the dataset whose
	// features the server resolves. A published checkpoint must match.
	spec framework.Spec
}

// newLayout is the layout of model, trained on spec.
func newLayout(model models.Model, spec framework.Spec) *layout {
	l := &layout{model: model, params: model.Parameters(), tables: models.EmbeddingTablesOf(model), spec: spec}
	l.Layout = models.LayoutOf(l.params, l.tables)
	l.emptyDense = make(paramvec.Vector, len(l.params))
	l.emptyTables = make([]paramvec.Table, len(l.params))
	for i, p := range l.params {
		if l.IsTable(i) {
			l.emptyTables[i] = paramvec.Table{Rows: p.Rows, Cols: p.Cols}
		} else {
			l.emptyDense[i] = make([]float64, p.Size())
		}
	}
	return l
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
	theta := paramvec.Sparse{Dense: sn.specific[d], Tables: sn.tables[d]}
	c := paramvec.SumBound(l.params, l.tables, sn.shared, theta)
	for p, base := range sn.quantized {
		// θ_S + θ_d differs from θ_S + (+0) only at the rows θ_d
		// stores, and the codec is per row: re-encoding those rows over
		// θ_S's codes is the whole composed table quantized. A quant
		// Table is its own row source: each lookup decodes its row
		// straight into the gather buffer.
		t := theta.Table(p, l.params[p].Cols)
		c.Rows[p] = quant.Patch(base, t.IDs, func(k int, dst []float64) { t.SumRow(dst, sn.shared[p], k) })
	}
	return &c
}

// extend appends one domain with an empty θ_i — it serves θ_S — without
// touching the published snapshot (capped appends: the old slices stay
// immutable), and carries over every already-materialized composition:
// existing domains' inputs are unchanged.
func (sn *snapshot) extend(id int) *snapshot {
	n := len(sn.specific)
	out := *sn
	out.specific = append(sn.specific[:n:n], sn.layout.emptyDense)
	out.tables = append(sn.tables[:n:n], sn.layout.emptyTables)
	out.names = append(sn.names[:n:n], fmt.Sprintf("runtime-%d", id))
	out.domains = make([]atomic.Pointer[paramvec.Bound], n+1)
	for d := 0; d < n; d++ {
		if c := sn.domains[d].Load(); c != nil {
			out.domains[d].Store(c)
		}
	}
	return &out
}

// newSnapshot wraps θ_S and every θ_d as a servable snapshot, off the
// request path, before anything is installed; under int8 it quantizes
// θ_S's tables. Composition itself is deferred per domain.
func (s *Server) newSnapshot(shared paramvec.Vector, specific []paramvec.Sparse) *snapshot {
	sn := &snapshot{
		shared:   shared,
		specific: make([]paramvec.Vector, len(specific)),
		tables:   make([][]paramvec.Table, len(specific)),
		names:    make([]string, len(specific)),
		layout:   s.layout,
		domains:  make([]atomic.Pointer[paramvec.Bound], len(specific)),
	}
	for d, v := range specific {
		sn.specific[d], sn.tables[d] = v.Dense, v.Tables
		if d < len(s.dataset.Domains) {
			sn.names[d] = s.dataset.Domains[d].Name
		} else {
			sn.names[d] = fmt.Sprintf("runtime-%d", d)
		}
	}
	if s.layout.int8 {
		sn.quantized = make(map[int]*quant.Table, len(s.layout.tables))
		for p := range s.layout.tables {
			sn.quantized[p] = quant.Quantize(shared[p], s.layout.params[p].Rows, s.layout.params[p].Cols)
		}
	}
	return sn
}

// composeState wraps a state handed in memory as a servable snapshot:
// its vectors are referenced, dense, as they are.
func (s *Server) composeState(st *core.State) *snapshot {
	specific := make([]paramvec.Sparse, len(st.Specific))
	for d, v := range st.Specific {
		specific[d] = paramvec.Sparse{Dense: v}
	}
	return s.newSnapshot(st.Shared, specific)
}
