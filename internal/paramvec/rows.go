package paramvec

import (
	"fmt"
	"math"
	"slices"

	"mamdr/internal/autograd/kernels"
)

// Table is a Rows×Cols embedding table held as its stored rows: row
// IDs[k] is Values[k*Cols:(k+1)*Cols], IDs ascend, and every row IDs
// does not name is +0. A fitted θ_i stores a few percent of its table
// rows, so in this form it costs the rows it holds.
type Table struct {
	Rows, Cols int
	IDs        []uint32
	Values     []float64
}

// Row returns row r's stored values, or nil when r is not stored.
func (t Table) Row(r int) []float64 {
	k, ok := slices.BinarySearch(t.IDs, uint32(r))
	if !ok {
		return nil
	}
	return t.Values[k*t.Cols : (k+1)*t.Cols]
}

// ZeroRow reports whether every value of row is +0 (all bits clear):
// the rows a Table leaves out. A row holding a -0, a NaN or anything
// else is stored.
func ZeroRow(row []float64) bool {
	for _, x := range row {
		if math.Float64bits(x) != 0 {
			return false
		}
	}
	return true
}

// TableOf is the stored-rows form of a dense rows×cols table: a copy of
// every row ZeroRow does not hold.
func TableOf(seg []float64, cols int) Table {
	t := Table{Rows: len(seg) / cols, Cols: cols}
	for r := 0; r < t.Rows; r++ {
		if row := seg[r*cols : (r+1)*cols]; !ZeroRow(row) {
			t.IDs = append(t.IDs, uint32(r))
			t.Values = append(t.Values, row...)
		}
	}
	return t
}

// Sparse is a vector whose embedding tables may be held as their stored
// rows: segment i is Tables[i] when Tables is non-nil and Tables[i] has
// columns, and Dense[i] otherwise (nil for a stored table). A dense
// vector v is Sparse{Dense: v}.
type Sparse struct {
	Dense  Vector
	Tables []Table
}

// stored reports whether segment i is held as stored rows.
func (v Sparse) stored(i int) bool { return v.Tables != nil && v.Tables[i].Cols > 0 }

// Table is segment i in stored-rows form: Tables[i], or TableOf a dense
// segment of width cols.
func (v Sparse) Table(i, cols int) Table {
	if v.stored(i) {
		return v.Tables[i]
	}
	return TableOf(v.Dense[i], cols)
}

// Scatter returns v as a Vector: its dense segments are v's own, not
// copies; each stored table is a fresh full-shape segment whose
// unstored rows are +0.
func (v Sparse) Scatter() Vector {
	out := make(Vector, len(v.Dense))
	for i := range out {
		if !v.stored(i) {
			out[i] = v.Dense[i]
			continue
		}
		t := v.Tables[i]
		seg := make([]float64, t.Rows*t.Cols)
		for k, r := range t.IDs {
			copy(seg[int(r)*t.Cols:], t.Values[k*t.Cols:(k+1)*t.Cols])
		}
		out[i] = seg
	}
	return out
}

// SumRow sets dst to row IDs[k] of a + t: a's row plus stored row k,
// element for element the expression of Sum. Every row t does not
// store sums to a + (+0).
func (t Table) SumRow(dst, a []float64, k int) {
	lo := int(t.IDs[k]) * t.Cols
	kernels.AddTo(dst, a[lo:lo+t.Cols], t.Values[k*t.Cols:(k+1)*t.Cols])
}

// storedRows serves row r of a + t as a[r] + t's row r where t stores
// one and a[r] + (+0) elsewhere: bit for bit Sum over t scattered.
type storedRows struct {
	a    []float64
	t    Table
	zero []float64
}

// Row implements autograd.RowSource.
func (s storedRows) Row(r int, dst []float64) {
	b := s.t.Row(r)
	if b == nil {
		b = s.zero
	}
	lo := r * s.t.Cols
	kernels.AddTo(dst, s.a[lo:lo+s.t.Cols], b)
}

// mustMatchSparse is mustMatch for a Sparse w: a stored table must have
// v's segment's shape.
func mustMatchSparse(v Vector, w Sparse) {
	if len(v) != len(w.Dense) || (w.Tables != nil && len(w.Tables) != len(v)) {
		panic(fmt.Sprintf("paramvec: vector length %d vs %d dense, %d table segments", len(v), len(w.Dense), len(w.Tables)))
	}
	for i := range v {
		n := len(w.Dense[i])
		if w.stored(i) {
			n = w.Tables[i].Rows * w.Tables[i].Cols
		}
		if len(v[i]) != n {
			panic(fmt.Sprintf("paramvec: segment %d length %d vs %d", i, len(v[i]), n))
		}
	}
}
