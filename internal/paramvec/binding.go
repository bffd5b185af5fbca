package paramvec

import (
	"fmt"

	"mamdr/internal/autograd"
	"mamdr/internal/autograd/kernels"
)

// Bound is Θ = v + w in the form a Binding reads: Dense[i] holds the
// sum of segment i, except where segment i is an embedding table —
// there Dense[i] is nil and Rows[i] composes a row when a lookup asks
// for it. A Bound is never written after it is built, so any number of
// models may be bound to it at once.
type Bound struct {
	Dense Vector
	Rows  []autograd.RowSource
}

// SumBound composes v + w for binding to params. tables is keyed by the
// indices of params that are embedding tables (the models.EmbeddingTabler
// map); only the other segments are summed, so the cost follows the
// dense part of the model and not its tables. A table w holds as stored
// rows serves v[r] + (+0) at every row it does not store, bit for bit
// Sum over w scattered.
func SumBound(params []*autograd.Tensor, tables map[int]int, v Vector, w Sparse) Bound {
	mustMatchSparse(v, w)
	if len(params) != len(v) {
		panic(fmt.Sprintf("paramvec: %d tensors vs %d segments", len(params), len(v)))
	}
	b := Bound{Dense: make(Vector, len(v)), Rows: make([]autograd.RowSource, len(v))}
	for i := range v {
		if _, ok := tables[i]; ok {
			if w.stored(i) {
				b.Rows[i] = storedRows{a: v[i], t: w.Tables[i], zero: make([]float64, w.Tables[i].Cols)}
			} else {
				b.Rows[i] = sumRows{a: v[i], b: w.Dense[i], cols: params[i].Cols}
			}
			continue
		}
		b.Dense[i] = make([]float64, len(v[i]))
		kernels.AddTo(b.Dense[i], v[i], w.Dense[i])
	}
	return b
}

// sumRows serves row r of a table stored as two addends as a[r] + b[r],
// element for element the expression of Sum.
type sumRows struct {
	a, b []float64
	cols int
}

// Row implements autograd.RowSource.
func (s sumRows) Row(r int, dst []float64) {
	lo, hi := r*s.cols, (r+1)*s.cols
	kernels.AddTo(dst, s.a[lo:hi], s.b[lo:hi])
}

// Binding points a model's parameter tensors at a Bound by reference —
// the zero-copy twin of Restore: O(#tensors) slice-header writes, no
// element copied. Between Bind and Unbind the tensors alias memory the
// model does not own, so nothing may write through them (inference
// only); Unbind puts the tensors' own storage back.
type Binding struct {
	params []*autograd.Tensor
	own    [][]float64
	bound  bool
}

// NewBinding prepares a binding over params.
func NewBinding(params []*autograd.Tensor) *Binding {
	return &Binding{params: params, own: make([][]float64, len(params))}
}

// Bind makes the tensors read b until Unbind.
func (bd *Binding) Bind(b Bound) {
	if bd.bound || len(b.Dense) != len(bd.params) || len(b.Rows) != len(bd.params) {
		panic(fmt.Sprintf("paramvec: Bind of %d dense, %d row segments to %d tensors (already bound: %v)",
			len(b.Dense), len(b.Rows), len(bd.params), bd.bound))
	}
	bd.bound = true
	for i, p := range bd.params {
		if b.Rows[i] == nil && len(b.Dense[i]) != p.Size() {
			panic(fmt.Sprintf("paramvec: Bind segment %d has %d values, tensor has %d", i, len(b.Dense[i]), p.Size()))
		}
		bd.own[i] = p.Data
		p.Data = b.Dense[i]
		p.BindRows(b.Rows[i])
	}
}

// Unbind restores the tensors' own Data headers.
func (bd *Binding) Unbind() {
	if !bd.bound {
		return
	}
	bd.bound = false
	for i, p := range bd.params {
		p.Data = bd.own[i]
		p.BindRows(nil)
	}
}
