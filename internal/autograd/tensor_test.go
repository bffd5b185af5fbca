package autograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	New(2, 3, []float64{1, 2, 3})
}

func TestScalarItem(t *testing.T) {
	s := Scalar(4.25)
	if got := s.Item(); got != 4.25 {
		t.Fatalf("Item() = %g, want 4.25", got)
	}
}

func TestItemOnMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Item on matrix")
		}
	}()
	Zeros(2, 2).Item()
}

func TestBackwardOnNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Backward on matrix")
		}
	}()
	Zeros(2, 2).Backward()
}

func TestParamHasGradBuffer(t *testing.T) {
	p := ParamZeros(3, 4)
	if !p.RequiresGrad() {
		t.Fatal("Param should require grad")
	}
	if len(p.Grad) != 12 {
		t.Fatalf("grad buffer len = %d, want 12", len(p.Grad))
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Param(1, 2, []float64{1, 2})
	c := p.Clone()
	c.Data[0] = 99
	if p.Data[0] != 1 {
		t.Fatal("Clone shares data with original")
	}
	if !c.RequiresGrad() {
		t.Fatal("Clone should preserve RequiresGrad")
	}
}

func TestDetachSharesDataButDropsGraph(t *testing.T) {
	a := Param(1, 2, []float64{1, 2})
	b := Scale(a, 2)
	d := b.Detach()
	if d.backward != nil || d.parents != nil || d.RequiresGrad() {
		t.Fatal("Detach must drop graph edges and grad tracking")
	}
	d.Data[0] = 7
	if b.Data[0] != 7 {
		t.Fatal("Detach should share underlying data")
	}
}

func TestBackwardSimpleChain(t *testing.T) {
	// loss = sum((2x)^2) with x = [1, -3]; dloss/dx = 8x.
	x := Param(1, 2, []float64{1, -3})
	loss := Sum(Square(Scale(x, 2)))
	loss.Backward()
	want := []float64{8, -24}
	for i, w := range want {
		if math.Abs(x.Grad[i]-w) > 1e-12 {
			t.Fatalf("grad[%d] = %g, want %g", i, x.Grad[i], w)
		}
	}
}

func TestBackwardDiamondAccumulates(t *testing.T) {
	// y = x + x: dy/dx = 2 through two paths.
	x := Param(1, 1, []float64{3})
	loss := Sum(Add(x, x))
	loss.Backward()
	if x.Grad[0] != 2 {
		t.Fatalf("diamond grad = %g, want 2", x.Grad[0])
	}
}

func TestBackwardReusedSubexpression(t *testing.T) {
	// z = x*x; loss = sum(z + z) = 2x^2; dloss/dx = 4x.
	x := Param(1, 1, []float64{5})
	z := Square(x)
	loss := Sum(Add(z, z))
	loss.Backward()
	if x.Grad[0] != 20 {
		t.Fatalf("reused-node grad = %g, want 20", x.Grad[0])
	}
}

func TestZeroGrad(t *testing.T) {
	x := Param(1, 1, []float64{2})
	Sum(Square(x)).Backward()
	if x.Grad[0] == 0 {
		t.Fatal("expected nonzero grad before ZeroGrad")
	}
	x.ZeroGrad()
	if x.Grad[0] != 0 {
		t.Fatal("ZeroGrad did not clear")
	}
}

func TestGradAccumulatesAcrossBackwardCalls(t *testing.T) {
	x := Param(1, 1, []float64{1})
	Sum(Scale(x, 3)).Backward()
	Sum(Scale(x, 3)).Backward()
	if x.Grad[0] != 6 {
		t.Fatalf("accumulated grad = %g, want 6", x.Grad[0])
	}
}

func TestConstantOpsBuildNoGraph(t *testing.T) {
	a := New(1, 2, []float64{1, 2})
	b := New(1, 2, []float64{3, 4})
	c := Add(a, b)
	if c.backward != nil || c.parents != nil || c.Grad != nil {
		t.Fatal("ops over constants must not build graph edges")
	}
}

// TestForwardAllocatesNoGrad: a forward over trainable parameters that is
// never differentiated — a prediction — leaves every op result's Grad nil;
// Backward then gives each one on the loss's path a Grad, and the
// parameters their gradients.
func TestForwardAllocatesNoGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	emb := ParamRand(10, 4, 0.5, rng)
	w1, b1 := ParamXavier(8, 6, rng), ParamZeros(1, 6)
	w2 := ParamXavier(6, 1, rng)
	x := ConcatCols(Gather(emb, []int{1, 1, 1}), Gather(emb, []int{2, 5, 7}))
	h := DenseAct(x, w1, b1, ActReLU, 0)
	logits := MatMul(Sigmoid(h), w2)
	loss := BCEWithLogits(logits, []float64{1, 0, 1})

	var results []*Tensor
	seen := map[*Tensor]bool{}
	stack := []*Tensor{loss}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if n.pooled {
			results = append(results, n)
		}
		stack = append(stack, n.parents...)
	}
	if len(results) != 7 {
		t.Fatalf("walked %d op results, want 7", len(results))
	}
	for _, n := range results {
		if n.Grad != nil {
			t.Fatalf("op result %v carries a Grad buffer before any Backward", n)
		}
	}
	loss.Backward()
	for _, n := range results {
		if len(n.Grad) != len(n.Data) {
			t.Fatalf("op result %v: Grad of %d after Backward, want %d", n, len(n.Grad), len(n.Data))
		}
	}
	for _, p := range []*Tensor{emb, w1, b1, w2} {
		if Sum(Square(New(p.Rows, p.Cols, p.Grad))).Item() == 0 {
			t.Fatalf("parameter %v got no gradient", p)
		}
	}
	loss.Release()
}

func TestQuickCloneRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		tns := New(1, len(vals), vals)
		c := tns.Clone()
		for i := range vals {
			if c.Data[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParamRandWithinScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := ParamRand(10, 10, 0.5, rng)
	for _, v := range p.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("value %g outside [-0.5, 0.5]", v)
		}
	}
}

func TestParamXavierBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows, cols := 30, 20
	limit := math.Sqrt(6.0 / float64(rows+cols))
	p := ParamXavier(rows, cols, rng)
	for _, v := range p.Data {
		if math.Abs(v) > limit {
			t.Fatalf("xavier value %g outside limit %g", v, limit)
		}
	}
}
