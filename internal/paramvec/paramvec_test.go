package paramvec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mamdr/internal/autograd"
)

func testParams() []*autograd.Tensor {
	return []*autograd.Tensor{
		autograd.Param(1, 3, []float64{1, 2, 3}),
		autograd.Param(2, 2, []float64{4, 5, 6, 7}),
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ps := testParams()
	v := Snapshot(ps)
	ps[0].Data[0] = 99
	ps[1].Data[3] = -1
	Restore(ps, v)
	if ps[0].Data[0] != 1 || ps[1].Data[3] != 7 {
		t.Fatal("Restore did not recover snapshotted values")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	ps := testParams()
	v := Snapshot(ps)
	ps[0].Data[0] = 42
	if v[0][0] != 1 {
		t.Fatal("Snapshot shares memory with parameters")
	}
}

func TestSnapshotGrads(t *testing.T) {
	ps := testParams()
	ps[0].Grad[1] = 5
	noGrad := autograd.New(1, 2, []float64{0, 0})
	v := SnapshotGrads(append(ps, noGrad))
	if v[0][1] != 5 {
		t.Fatal("SnapshotGrads missed gradient")
	}
	if len(v[2]) != 2 || v[2][0] != 0 {
		t.Fatal("SnapshotGrads should zero-fill gradient-free tensors")
	}
}

func TestVectorAlgebra(t *testing.T) {
	v := Vector{{1, 2}, {3}}
	w := Vector{{10, 20}, {30}}
	sum := Add(v, w)
	if sum[0][0] != 11 || sum[1][0] != 33 {
		t.Fatalf("Add = %v", sum)
	}
	diff := Sub(w, v)
	if diff[0][1] != 18 {
		t.Fatalf("Sub = %v", diff)
	}
	sc := Scale(v, 2)
	if sc[0][1] != 4 {
		t.Fatalf("Scale = %v", sc)
	}
	if d := Dot(v, w); d != 10+40+90 {
		t.Fatalf("Dot = %g", d)
	}
	if n := Norm(Vector{{3, 4}}); n != 5 {
		t.Fatalf("Norm = %g", n)
	}
	if v.Len() != 3 {
		t.Fatalf("Len = %d", v.Len())
	}
	z := v.Zero()
	if z[0][0] != 0 || len(z[1]) != 1 {
		t.Fatal("Zero wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{{1, 2}}
	c := v.Clone()
	c[0][0] = 9
	if v[0][0] != 1 {
		t.Fatal("Clone not deep")
	}
}

func TestAxpy(t *testing.T) {
	dst := Vector{{1, 1}}
	Axpy(dst, 2, Vector{{3, 4}})
	if dst[0][0] != 7 || dst[0][1] != 9 {
		t.Fatalf("Axpy = %v", dst)
	}
}

func TestAxpyInto(t *testing.T) {
	ps := []*autograd.Tensor{autograd.Param(1, 2, []float64{1, 1})}
	AxpyInto(ps, -1, Vector{{0.5, 0.25}})
	if ps[0].Data[0] != 0.5 || ps[0].Data[1] != 0.75 {
		t.Fatalf("AxpyInto = %v", ps[0].Data)
	}
}

func TestAddScaledDiffInto(t *testing.T) {
	// The Reptile/DN outer update: params += s*(endpoint - base).
	ps := []*autograd.Tensor{autograd.Param(1, 2, []float64{10, 10})}
	base := Vector{{10, 10}}
	endpoint := Vector{{14, 6}}
	AddScaledDiffInto(ps, 0.5, endpoint, base)
	if ps[0].Data[0] != 12 || ps[0].Data[1] != 8 {
		t.Fatalf("AddScaledDiffInto = %v", ps[0].Data)
	}
}

// randVector fills a vector shaped like shape with awkward magnitudes, so
// that a different evaluation order would show in the low bits.
func randVector(shape Vector, rng *rand.Rand) Vector {
	v := shape.Zero()
	for i := range v {
		for j := range v[i] {
			v[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return v
}

func mustEqualBits(t *testing.T, what string, got, want Vector) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s[%d][%d] = %v, want %v (bit-identical)", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestBindingPointsAndRestores: Bind aliases the dense segments (no
// copy), routes table lookups through the row source, and Unbind puts
// the tensors' own storage back untouched.
func TestBindingPointsAndRestores(t *testing.T) {
	table := autograd.Param(3, 2, []float64{9, 9, 9, 9, 9, 9})
	dense := autograd.Param(1, 2, []float64{7, 7})
	params := []*autograd.Tensor{table, dense}
	ownTable, ownDense := table.Data, dense.Data

	v := Vector{{0, 1, 10, 11, 20, 21}, {1, 2}}
	w := Vector{{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, {10, 20}}
	bound := SumBound(params, map[int]int{0: 0}, v, Sparse{Dense: w})
	if bound.Dense[0] != nil || bound.Rows[0] == nil || bound.Rows[1] != nil {
		t.Fatalf("SumBound split = dense %v rows %v: the table must be a row source only", bound.Dense, bound.Rows)
	}
	mustEqualBits(t, "dense segment", Vector{bound.Dense[1]}, Vector{Sum(v, w)[1]})

	bd := NewBinding(params)
	bd.Bind(bound)
	if &dense.Data[0] != &bound.Dense[1][0] {
		t.Fatal("Bind copied a dense segment instead of pointing at it")
	}
	if table.Data != nil {
		t.Fatal("a bound table must carry no Data")
	}
	got := autograd.Gather(table, []int{2, 0})
	mustEqualBits(t, "bound rows", Vector{got.Data}, Vector{{20.5, 21.5, 0.5, 1.5}})

	bd.Unbind()
	bd.Unbind() // idempotent
	if &table.Data[0] != &ownTable[0] || &dense.Data[0] != &ownDense[0] {
		t.Fatal("Unbind did not restore the tensors' own Data headers")
	}
	if g := autograd.Gather(table, []int{1}); g.Data[0] != 9 || dense.Data[0] != 7 {
		t.Fatal("the tensors' own values changed across Bind/Unbind")
	}
}

// TestStoredRowsServeTheDenseSum: a table held as its stored rows
// (TableOf of a dense table) scatters back to that table, and bound
// through SumBound serves every row as Sum over the dense table
// bit for bit — a stored -0 row keeps v's -0, an unstored row is
// v + (+0), so v's -0 there becomes +0.
func TestStoredRowsServeTheDenseSum(t *testing.T) {
	negZero := math.Copysign(0, -1)
	params := []*autograd.Tensor{autograd.Param(4, 2, make([]float64, 8)), autograd.Param(1, 2, []float64{0, 0})}
	v := Vector{{negZero, negZero, negZero, 1, 2, 3, 4, 5}, {1, 2}}
	w := Vector{{negZero, negZero, 0, 0, 0.5, 0, 0, 0}, {10, 20}}
	tb := TableOf(w[0], 2)
	if len(tb.IDs) != 2 || tb.IDs[0] != 0 || tb.IDs[1] != 2 || tb.Rows != 4 {
		t.Fatalf("TableOf stores rows %v of %d, want [0 2] of 4", tb.IDs, tb.Rows)
	}
	sp := Sparse{Dense: Vector{nil, w[1]}, Tables: []Table{tb, {}}}
	mustEqualBits(t, "Scatter", sp.Scatter(), w)

	want := Sum(v, w)
	bound := SumBound(params, map[int]int{0: 0}, v, sp)
	mustEqualBits(t, "dense segment", Vector{bound.Dense[1]}, Vector{want[1]})
	row := make([]float64, 2)
	for r := 0; r < 4; r++ {
		bound.Rows[0].Row(r, row)
		mustEqualBits(t, fmt.Sprintf("row %d", r), Vector{row}, Vector{want[0][2*r : 2*r+2]})
		if k := slices.Index(tb.IDs, uint32(r)); k >= 0 {
			tb.SumRow(row, v[0], k)
			mustEqualBits(t, fmt.Sprintf("SumRow %d", r), Vector{row}, Vector{want[0][2*r : 2*r+2]})
		}
	}
	if math.Float64bits(want[0][0]) != math.Float64bits(negZero) || math.Float64bits(want[0][2]) != 0 {
		t.Fatalf("the fixture's rows 0 and 1 start %v and %v, want -0 and +0", want[0][0], want[0][2])
	}
}

func TestBindTwicePanics(t *testing.T) {
	params := []*autograd.Tensor{autograd.Param(1, 1, []float64{1})}
	bd := NewBinding(params)
	bound := SumBound(params, nil, Vector{{1}}, Sparse{Dense: Vector{{2}}})
	bd.Bind(bound)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Bind would lose the tensors' own storage; expected panic")
		}
	}()
	bd.Bind(bound)
}

func TestCosineSimilarity(t *testing.T) {
	if c := CosineSimilarity(Vector{{1, 0}}, Vector{{0, 1}}); c != 0 {
		t.Fatalf("orthogonal cos = %g", c)
	}
	if c := CosineSimilarity(Vector{{1, 1}}, Vector{{2, 2}}); math.Abs(c-1) > 1e-12 {
		t.Fatalf("parallel cos = %g", c)
	}
	if c := CosineSimilarity(Vector{{1, 0}}, Vector{{-1, 0}}); math.Abs(c+1) > 1e-12 {
		t.Fatalf("antiparallel cos = %g", c)
	}
	if c := CosineSimilarity(Vector{{0, 0}}, Vector{{1, 1}}); c != 0 {
		t.Fatalf("zero-vector cos = %g", c)
	}
}

func TestProjectOutConflicting(t *testing.T) {
	// v conflicts with w; the projection must be orthogonal to w.
	v := Vector{{1, -1}}
	w := Vector{{0, 1}}
	p := ProjectOut(v, w)
	if d := Dot(p, w); math.Abs(d) > 1e-12 {
		t.Fatalf("projection not orthogonal: <p,w> = %g", d)
	}
	if p[0][0] != 1 {
		t.Fatal("projection changed the non-conflicting component")
	}
}

func TestProjectOutNonConflictingIsIdentity(t *testing.T) {
	v := Vector{{1, 1}}
	w := Vector{{1, 0}}
	p := ProjectOut(v, w)
	if p[0][0] != 1 || p[0][1] != 1 {
		t.Fatalf("non-conflicting projection altered v: %v", p)
	}
}

func TestProjectOutZeroW(t *testing.T) {
	v := Vector{{1, 2}}
	p := ProjectOut(v, Vector{{0, 0}})
	if p[0][0] != 1 || p[0][1] != 2 {
		t.Fatal("projection against zero vector should be identity")
	}
}

func TestMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Add(Vector{{1}}, Vector{{1, 2}})
}

func TestRestoreMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misaligned restore")
		}
	}()
	Restore(testParams(), Vector{{1}})
}

func TestQuickDotSymmetric(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		v, w := Vector{a[:n]}, Vector{b[:n]}
		d1, d2 := Dot(v, w), Dot(w, v)
		return d1 == d2 || (math.IsNaN(d1) && math.IsNaN(d2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		v, w := Vector{a}, Vector{b}
		if Norm(Add(v, w)) > Norm(v)+Norm(w)+1e-9 {
			t.Fatal("triangle inequality violated")
		}
	}
}

func TestQuickProjectOutNeverConflicts(t *testing.T) {
	// Property: after ProjectOut, <result, w> >= 0 (no conflict remains).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		p := ProjectOut(Vector{a}, Vector{b})
		if Dot(p, Vector{b}) < -1e-9 {
			t.Fatal("conflict remained after projection")
		}
	}
}
