package autograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const (
	gcEps = 1e-5
	gcTol = 1e-5
)

// randParam builds a deterministic random parameter for gradient checks.
func randParam(rows, cols int, seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	return ParamRand(rows, cols, 1, rng)
}

func checkOp(t *testing.T, name string, f func() *Tensor, params ...*Tensor) {
	t.Helper()
	if err := CheckGradients(f, params, gcEps, gcTol); err != nil {
		t.Fatalf("%s gradient check: %v", name, err)
	}
}

func TestAddForward(t *testing.T) {
	c := Add(New(1, 3, []float64{1, 2, 3}), New(1, 3, []float64{10, 20, 30}))
	want := []float64{11, 22, 33}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("Add[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestAddGrad(t *testing.T) {
	a, b := randParam(2, 3, 1), randParam(2, 3, 2)
	checkOp(t, "Add", func() *Tensor { return Sum(Square(Add(a, b))) }, a, b)
}

func TestSubGrad(t *testing.T) {
	a, b := randParam(2, 3, 3), randParam(2, 3, 4)
	checkOp(t, "Sub", func() *Tensor { return Sum(Square(Sub(a, b))) }, a, b)
}

func TestMulGrad(t *testing.T) {
	a, b := randParam(2, 3, 5), randParam(2, 3, 6)
	checkOp(t, "Mul", func() *Tensor { return Sum(Square(Mul(a, b))) }, a, b)
}

func TestScaleGrad(t *testing.T) {
	a := randParam(2, 3, 7)
	checkOp(t, "Scale", func() *Tensor { return Sum(Square(Scale(a, -1.7))) }, a)
}

func TestAddScalarGrad(t *testing.T) {
	a := randParam(2, 3, 8)
	checkOp(t, "AddScalar", func() *Tensor { return Sum(Square(AddScalar(a, 0.3))) }, a)
}

func TestMatMulForward(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := New(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatMulGrad(t *testing.T) {
	a, b := randParam(3, 4, 9), randParam(4, 2, 10)
	checkOp(t, "MatMul", func() *Tensor { return Sum(Square(MatMul(a, b))) }, a, b)
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(Zeros(2, 3), Zeros(2, 3))
}

func TestAddRowVectorGrad(t *testing.T) {
	a, b := randParam(3, 4, 11), randParam(1, 4, 12)
	checkOp(t, "AddRowVector", func() *Tensor { return Sum(Square(AddRowVector(a, b))) }, a, b)
}

func TestMulColBroadcastGrad(t *testing.T) {
	a, c := randParam(3, 4, 13), randParam(3, 1, 14)
	checkOp(t, "MulColBroadcast", func() *Tensor { return Sum(Square(MulColBroadcast(a, c))) }, a, c)
}

func TestConcatColsForwardAndGrad(t *testing.T) {
	a, b := randParam(2, 2, 15), randParam(2, 3, 16)
	c := ConcatCols(a.Detach(), b.Detach())
	if c.Rows != 2 || c.Cols != 5 {
		t.Fatalf("ConcatCols shape = %dx%d, want 2x5", c.Rows, c.Cols)
	}
	if c.At(1, 0) != a.At(1, 0) || c.At(0, 2) != b.At(0, 0) {
		t.Fatal("ConcatCols layout wrong")
	}
	checkOp(t, "ConcatCols", func() *Tensor { return Sum(Square(ConcatCols(a, b))) }, a, b)
}

func TestSliceColsForwardAndGrad(t *testing.T) {
	a := randParam(3, 6, 17)
	s := SliceCols(a.Detach(), 2, 5)
	if s.Rows != 3 || s.Cols != 3 {
		t.Fatalf("SliceCols shape = %dx%d, want 3x3", s.Rows, s.Cols)
	}
	if s.At(1, 0) != a.At(1, 2) {
		t.Fatal("SliceCols content wrong")
	}
	checkOp(t, "SliceCols", func() *Tensor { return Sum(Square(SliceCols(a, 1, 4))) }, a)
}

func TestSliceThenConcatRoundTrip(t *testing.T) {
	a := randParam(2, 6, 18).Detach()
	r := ConcatCols(SliceCols(a, 0, 3), SliceCols(a, 3, 6))
	for i := range a.Data {
		if r.Data[i] != a.Data[i] {
			t.Fatal("slice+concat should reproduce the input")
		}
	}
}

func TestActivationGrads(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(*Tensor) *Tensor
	}{
		{"Sigmoid", Sigmoid},
		{"ReLU", ReLU},
		{"Tanh", Tanh},
		{"Exp", Exp},
		{"Square", Square},
		{"LeakyReLU", func(x *Tensor) *Tensor { return LeakyReLU(x, 0.1) }},
	} {
		// Shift away from 0 so ReLU's kink doesn't break finite differences.
		a := randParam(2, 3, 19)
		for i := range a.Data {
			a.Data[i] += 0.5
			if math.Abs(a.Data[i]) < 0.1 {
				a.Data[i] = 0.25
			}
		}
		checkOp(t, tc.name, func() *Tensor { return Sum(Square(tc.op(a))) }, a)
	}
}

func TestLogGrad(t *testing.T) {
	a := randParam(2, 3, 20)
	for i := range a.Data {
		a.Data[i] = math.Abs(a.Data[i]) + 0.5 // keep strictly positive
	}
	checkOp(t, "Log", func() *Tensor { return Sum(Square(Log(a))) }, a)
}

func TestSigmoidRange(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		s := Sigmoid(Scalar(v)).Item()
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := ParamRand(5, 7, 10, rng)
	s := SoftmaxRows(a.Detach())
	for i := 0; i < s.Rows; i++ {
		var sum float64
		for j := 0; j < s.Cols; j++ {
			v := s.At(i, j)
			if v < 0 {
				t.Fatal("softmax produced negative probability")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestSoftmaxRowsGrad(t *testing.T) {
	a := randParam(3, 4, 22)
	w := randParam(3, 4, 23).Detach() // fixed weights make the loss non-symmetric
	checkOp(t, "SoftmaxRows", func() *Tensor { return Sum(Mul(SoftmaxRows(a), w)) }, a)
}

func TestSoftmaxNumericalStability(t *testing.T) {
	a := New(1, 3, []float64{1000, 1000, 1000})
	s := SoftmaxRows(a)
	for _, v := range s.Data {
		if math.IsNaN(v) || math.Abs(v-1.0/3) > 1e-9 {
			t.Fatalf("unstable softmax: %v", s.Data)
		}
	}
}

func TestReductionGrads(t *testing.T) {
	a := randParam(3, 4, 24)
	checkOp(t, "Sum", func() *Tensor { return Square(Sum(a)) }, a)
	checkOp(t, "Mean", func() *Tensor { return Square(Mean(a)) }, a)
	checkOp(t, "SumRows", func() *Tensor { return Sum(Square(SumRows(a))) }, a)
}

func TestRowDotForwardAndGrad(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 3, 4})
	b := New(2, 2, []float64{5, 6, 7, 8})
	d := RowDot(a, b)
	if d.Data[0] != 17 || d.Data[1] != 53 {
		t.Fatalf("RowDot = %v, want [17 53]", d.Data)
	}
	pa, pb := randParam(3, 4, 25), randParam(3, 4, 26)
	checkOp(t, "RowDot", func() *Tensor { return Sum(Square(RowDot(pa, pb))) }, pa, pb)
}

func TestGatherForward(t *testing.T) {
	table := New(3, 2, []float64{0, 1, 10, 11, 20, 21})
	g := Gather(table, []int{2, 0, 2})
	want := []float64{20, 21, 0, 1, 20, 21}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("Gather[%d] = %g, want %g", i, g.Data[i], w)
		}
	}
}

// doubledRows is a RowSource over a table it does not expose as Data.
type doubledRows struct {
	data []float64
	cols int
}

func (d doubledRows) Row(r int, dst []float64) {
	for j := range dst {
		dst[j] = 2 * d.data[r*d.cols+j]
	}
}

// TestGatherReadsThroughRowSource: a bound table needs no Data at all,
// and unbinding returns Gather to direct reads.
func TestGatherReadsThroughRowSource(t *testing.T) {
	own := []float64{0, 1, 10, 11, 20, 21}
	table := Param(3, 2, own)
	table.Data = nil
	table.BindRows(doubledRows{data: own, cols: 2})
	g := Gather(table, []int{2, 0})
	for i, w := range []float64{40, 42, 0, 2} {
		if g.Data[i] != w {
			t.Fatalf("bound Gather[%d] = %g, want %g", i, g.Data[i], w)
		}
	}
	table.BindRows(nil)
	table.Data = own
	if g := Gather(table, []int{1}); g.Data[0] != 10 || g.Data[1] != 11 {
		t.Fatalf("unbound Gather = %v, want [10 11]", g.Data)
	}
}

// TestReleaseLeavesBorrowedParameterData: a parameter whose Data header
// points at memory it does not own (an inference binding) is a leaf
// like any other — Release recycles the op results and neither the
// borrowed slice nor the header.
func TestReleaseLeavesBorrowedParameterData(t *testing.T) {
	borrowed := []float64{1, 2, 3, 4}
	w := ParamZeros(2, 2)
	w.Data = borrowed
	x := New(1, 2, []float64{1, 1})
	out := Sum(MatMul(x, w))
	if out.Item() != 10 {
		t.Fatalf("forward through borrowed Data = %g, want 10", out.Item())
	}
	out.Release()
	if &w.Data[0] != &borrowed[0] || len(w.Data) != 4 {
		t.Fatal("Release replaced a parameter's borrowed Data header")
	}
	for i, v := range []float64{1, 2, 3, 4} {
		if borrowed[i] != v {
			t.Fatalf("Release wrote borrowed[%d] = %g", i, borrowed[i])
		}
	}
}

func TestGatherGradWithRepeats(t *testing.T) {
	table := randParam(4, 3, 27)
	idx := []int{1, 3, 1, 1}
	checkOp(t, "Gather", func() *Tensor { return Sum(Square(Gather(table, idx))) }, table)
}

func TestGatherOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	Gather(Zeros(2, 2), []int{5})
}

func TestDropoutEval(t *testing.T) {
	a := New(1, 4, []float64{1, 2, 3, 4})
	out := Dropout(a, 0.5, false, rand.New(rand.NewSource(1)))
	if out != a {
		t.Fatal("Dropout in eval mode must be identity")
	}
}

func TestDropoutTrainingScalesSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(1, 1000, make([]float64, 1000))
	for i := range a.Data {
		a.Data[i] = 1
	}
	out := Dropout(a, 0.3, true, rng)
	var zeros int
	for _, v := range out.Data {
		switch {
		case v == 0:
			zeros++
		case math.Abs(v-1/0.7) > 1e-12:
			t.Fatalf("survivor scaled to %g, want %g", v, 1/0.7)
		}
	}
	if zeros < 200 || zeros > 400 {
		t.Fatalf("dropped %d of 1000 at p=0.3", zeros)
	}
}

func TestDropoutGrad(t *testing.T) {
	// A fixed rng seed makes the dropout mask deterministic across the
	// analytic and numeric passes as long as we rebuild the rng in f.
	a := randParam(2, 5, 28)
	checkOp(t, "Dropout", func() *Tensor {
		rng := rand.New(rand.NewSource(42))
		return Sum(Square(Dropout(a, 0.4, true, rng)))
	}, a)
}

func TestBCEWithLogitsMatchesDirectFormula(t *testing.T) {
	logits := New(3, 1, []float64{2, -1, 0.5})
	labels := []float64{1, 0, 1}
	got := BCEWithLogits(logits, labels).Item()
	var want float64
	for i, x := range logits.Data {
		p := 1 / (1 + math.Exp(-x))
		want += -(labels[i]*math.Log(p) + (1-labels[i])*math.Log(1-p))
	}
	want /= 3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("BCE = %g, want %g", got, want)
	}
}

func TestBCEWithLogitsGrad(t *testing.T) {
	logits := randParam(5, 1, 29)
	labels := []float64{1, 0, 1, 1, 0}
	checkOp(t, "BCEWithLogits", func() *Tensor { return BCEWithLogits(logits, labels) }, logits)
}

func TestBCEWithLogitsExtremeLogitsFinite(t *testing.T) {
	logits := Param(2, 1, []float64{500, -500})
	loss := BCEWithLogits(logits, []float64{0, 1})
	if math.IsInf(loss.Item(), 0) || math.IsNaN(loss.Item()) {
		t.Fatalf("loss not finite: %g", loss.Item())
	}
	loss.Backward()
	for _, g := range logits.Grad {
		if math.IsNaN(g) {
			t.Fatal("gradient is NaN for extreme logits")
		}
	}
}

func TestMSEGrad(t *testing.T) {
	pred := randParam(4, 1, 30)
	targets := []float64{0.5, -0.25, 1, 0}
	checkOp(t, "MSE", func() *Tensor { return MSE(pred, targets) }, pred)
}

func TestL2PenaltyGrad(t *testing.T) {
	a, b := randParam(2, 2, 31), randParam(1, 3, 32)
	checkOp(t, "L2Penalty", func() *Tensor { return L2Penalty(0.1, a, b) }, a, b)
}

func TestBiInteractionMatchesPairwiseSum(t *testing.T) {
	const fields, dim = 3, 2
	rng := rand.New(rand.NewSource(33))
	a := ParamRand(2, fields*dim, 1, rng).Detach()
	out := BiInteraction(a, fields, dim)
	for b := 0; b < 2; b++ {
		for k := 0; k < dim; k++ {
			var want float64
			for f1 := 0; f1 < fields; f1++ {
				for f2 := f1 + 1; f2 < fields; f2++ {
					want += a.At(b, f1*dim+k) * a.At(b, f2*dim+k)
				}
			}
			if math.Abs(out.At(b, k)-want) > 1e-12 {
				t.Fatalf("BiInteraction[%d,%d] = %g, want %g", b, k, out.At(b, k), want)
			}
		}
	}
}

func TestBiInteractionGrad(t *testing.T) {
	a := randParam(3, 6, 34) // 3 fields x dim 2
	checkOp(t, "BiInteraction", func() *Tensor { return Sum(Square(BiInteraction(a, 3, 2))) }, a)
}

func TestFMSecondOrderEqualsSumOfBiInteraction(t *testing.T) {
	const fields, dim = 4, 3
	a := randParam(2, fields*dim, 35).Detach()
	fm := FMSecondOrder(a, fields, dim)
	bi := BiInteraction(a, fields, dim)
	for b := 0; b < 2; b++ {
		var want float64
		for k := 0; k < dim; k++ {
			want += bi.At(b, k)
		}
		if math.Abs(fm.At(b, 0)-want) > 1e-12 {
			t.Fatalf("FM[%d] = %g, want %g", b, fm.At(b, 0), want)
		}
	}
}

func TestFMSecondOrderGrad(t *testing.T) {
	a := randParam(2, 8, 36) // 4 fields x dim 2
	checkOp(t, "FMSecondOrder", func() *Tensor { return Sum(Square(FMSecondOrder(a, 4, 2))) }, a)
}

func TestFieldShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad field shape")
		}
	}()
	BiInteraction(Zeros(1, 5), 2, 3)
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		a, b := Scalar(x), Scalar(y)
		return Add(a, b).Item() == Add(b, a).Item()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		a := ParamRand(n, n, 1, rng).Detach()
		id := Zeros(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		p := MatMul(a, id)
		for i := range a.Data {
			if math.Abs(p.Data[i]-a.Data[i]) > 1e-12 {
				t.Fatal("A x I != A")
			}
		}
	}
}

func TestDeepChainGradient(t *testing.T) {
	// A 6-layer random MLP-like chain gradient-checks end to end.
	rng := rand.New(rand.NewSource(38))
	x := ParamRand(4, 5, 1, rng).Detach()
	var params []*Tensor
	ws := make([]*Tensor, 6)
	bs := make([]*Tensor, 6)
	dims := []int{5, 7, 6, 5, 4, 3, 1}
	for l := 0; l < 6; l++ {
		ws[l] = ParamXavier(dims[l], dims[l+1], rng)
		bs[l] = ParamZeros(1, dims[l+1])
		params = append(params, ws[l], bs[l])
	}
	f := func() *Tensor {
		h := x
		for l := 0; l < 6; l++ {
			h = AddRowVector(MatMul(h, ws[l]), bs[l])
			if l < 5 {
				h = Tanh(h)
			}
		}
		return BCEWithLogits(h, []float64{1, 0, 1, 0})
	}
	if err := CheckGradients(f, params, gcEps, 1e-4); err != nil {
		t.Fatalf("deep chain gradient check: %v", err)
	}
}
