package nn

import (
	"math"
	"math/rand"
	"testing"

	"mamdr/internal/autograd"
)

func TestDenseShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(4, 3, ReLU, rng)
	x := autograd.Zeros(5, 4)
	y := d.Forward(x)
	if y.Rows != 5 || y.Cols != 3 {
		t.Fatalf("Dense output %dx%d, want 5x3", y.Rows, y.Cols)
	}
	if d.In() != 4 || d.Out() != 3 {
		t.Fatalf("In/Out = %d/%d, want 4/3", d.In(), d.Out())
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(3, 2, Tanh, rng)
	x := autograd.ParamRand(4, 3, 1, rng).Detach()
	labels := []float64{1, 0, 1, 0}
	f := func() *autograd.Tensor {
		h := d.Forward(x)
		logit := autograd.SumRows(h)
		return autograd.BCEWithLogits(logit, labels)
	}
	if err := autograd.CheckGradients(f, d.Parameters(), 1e-5, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestActivationString(t *testing.T) {
	names := map[Activation]string{
		Linear: "linear", ReLU: "relu", Sigmoid: "sigmoid",
		Tanh: "tanh", LeakyReLU: "leaky_relu",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestMLPStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{8, 16, 4, 1}, ReLU, 0, rng)
	if len(m.Layers) != 3 {
		t.Fatalf("layer count = %d, want 3", len(m.Layers))
	}
	if m.Layers[0].Act != ReLU || m.Layers[2].Act != Linear {
		t.Fatal("hidden layers must use act, output layer linear")
	}
	if m.OutDim() != 1 {
		t.Fatalf("OutDim = %d, want 1", m.OutDim())
	}
	x := autograd.Zeros(2, 8)
	y := m.Forward(x, false, nil)
	if y.Rows != 2 || y.Cols != 1 {
		t.Fatalf("MLP output %dx%d, want 2x1", y.Rows, y.Cols)
	}
}

func TestMLPTooFewDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP([]int{4}, ReLU, 0, rand.New(rand.NewSource(1)))
}

func TestMLPParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{8, 16, 1}, ReLU, 0, rng)
	want := 8*16 + 16 + 16*1 + 1
	if got := ParamCount(m); got != want {
		t.Fatalf("ParamCount = %d, want %d", got, want)
	}
}

func TestMLPParametersStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP([]int{4, 3, 1}, ReLU, 0, rng)
	a, b := m.Parameters(), m.Parameters()
	if len(a) != len(b) {
		t.Fatal("parameter count changed between calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parameter order not stable")
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP([]int{2, 8, 1}, Tanh, 0, rng)
	x := autograd.New(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []float64{0, 1, 1, 0}
	lr := 0.5
	for step := 0; step < 2000; step++ {
		ZeroGrads(m)
		loss := autograd.BCEWithLogits(m.Forward(x, true, rng), labels)
		loss.Backward()
		for _, p := range m.Parameters() {
			for i := range p.Data {
				p.Data[i] -= lr * p.Grad[i]
			}
		}
	}
	logits := m.Forward(x, false, nil)
	for i, y := range labels {
		p := 1 / (1 + math.Exp(-logits.Data[i]))
		if (y == 1 && p < 0.9) || (y == 0 && p > 0.1) {
			t.Fatalf("XOR sample %d: p=%.3f, label=%g", i, p, y)
		}
	}
}

func TestEmbeddingLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEmbedding(10, 4, 0.1, rng)
	out := e.Lookup([]int{3, 3, 9})
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("Lookup shape %dx%d, want 3x4", out.Rows, out.Cols)
	}
	for j := 0; j < 4; j++ {
		if out.At(0, j) != out.At(1, j) {
			t.Fatal("repeated id produced different vectors")
		}
		if out.At(0, j) != e.Table.At(3, j) {
			t.Fatal("lookup does not match table row")
		}
	}
	if e.Vocab() != 10 || e.Dim() != 4 {
		t.Fatalf("Vocab/Dim = %d/%d", e.Vocab(), e.Dim())
	}
}

func TestFrozenEmbeddingExposesNoParams(t *testing.T) {
	e := NewFrozenEmbedding([][]float64{{1, 2}, {3, 4}})
	if !e.Frozen() {
		t.Fatal("expected frozen")
	}
	if len(e.Parameters()) != 0 {
		t.Fatal("frozen embedding must expose no parameters")
	}
	out := e.Lookup([]int{1})
	if out.At(0, 0) != 3 || out.At(0, 1) != 4 {
		t.Fatal("frozen lookup content wrong")
	}
}

func TestFrozenEmbeddingRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged feature rows")
		}
	}()
	NewFrozenEmbedding([][]float64{{1, 2}, {3}})
}

func TestFrozenEmbeddingGetsNoGradient(t *testing.T) {
	e := NewFrozenEmbedding([][]float64{{1, 2}, {3, 4}})
	out := e.Lookup([]int{0, 1})
	loss := autograd.Sum(autograd.Square(out))
	loss.Backward()
	if e.Table.Grad != nil {
		for _, g := range e.Table.Grad {
			if g != 0 {
				t.Fatal("frozen table received gradient")
			}
		}
	}
}

func TestLayerNormNormalizesRows(t *testing.T) {
	ln := NewLayerNorm(4)
	x := autograd.New(2, 4, []float64{1, 2, 3, 4, 10, 10, 10, 14})
	y := ln.Forward(x)
	for i := 0; i < 2; i++ {
		var mean, varr float64
		for j := 0; j < 4; j++ {
			mean += y.At(i, j)
		}
		mean /= 4
		for j := 0; j < 4; j++ {
			d := y.At(i, j) - mean
			varr += d * d
		}
		varr /= 4
		if math.Abs(mean) > 1e-9 || math.Abs(varr-1) > 1e-3 {
			t.Fatalf("row %d: mean=%g var=%g", i, mean, varr)
		}
	}
}

func TestLayerNormGradFlowsToInputAndParams(t *testing.T) {
	ln := NewLayerNorm(3)
	x := autograd.ParamRand(2, 3, 1, rand.New(rand.NewSource(8)))
	loss := autograd.Sum(autograd.Square(ln.Forward(x)))
	loss.Backward()
	var nonzero bool
	for _, g := range ln.Gamma.Grad {
		if g != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("gamma received no gradient")
	}
	nonzero = false
	for _, g := range x.Grad {
		if g != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("input received no gradient")
	}
}

func TestPartitionedNormDomainsDiffer(t *testing.T) {
	pn := NewPartitionedNorm(3, 2)
	pn.DomainBetas[1].Data[0] = 5
	x := autograd.New(1, 3, []float64{1, 2, 3})
	y0 := pn.Forward(x, 0)
	y1 := pn.Forward(x, 1)
	if math.Abs((y1.At(0, 0)-y0.At(0, 0))-5) > 1e-9 {
		t.Fatalf("domain beta not applied: %g vs %g", y0.At(0, 0), y1.At(0, 0))
	}
	wantParams := 2 + 2*2
	if got := len(pn.Parameters()); got != wantParams {
		t.Fatalf("param tensors = %d, want %d", got, wantParams)
	}
}

func TestInteractingLayerShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewInteractingLayer(4, 2, 3, rng)
	fields := []*autograd.Tensor{
		autograd.ParamRand(5, 4, 1, rng).Detach(),
		autograd.ParamRand(5, 4, 1, rng).Detach(),
		autograd.ParamRand(5, 4, 1, rng).Detach(),
	}
	out := l.Forward(fields)
	if len(out) != 3 {
		t.Fatalf("field count = %d, want 3", len(out))
	}
	for _, o := range out {
		if o.Rows != 5 || o.Cols != l.OutDim() {
			t.Fatalf("field output %dx%d, want 5x%d", o.Rows, o.Cols, l.OutDim())
		}
	}
}

func TestInteractingLayerGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewInteractingLayer(3, 1, 2, rng)
	fields := []*autograd.Tensor{
		autograd.ParamRand(2, 3, 1, rng).Detach(),
		autograd.ParamRand(2, 3, 1, rng).Detach(),
	}
	f := func() *autograd.Tensor {
		outs := l.Forward(fields)
		return autograd.Sum(autograd.Square(autograd.ConcatCols(outs...)))
	}
	if err := autograd.CheckGradients(f, l.Parameters(), 1e-5, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestInteractingLayerAttendsAcrossFields(t *testing.T) {
	// Zeroing one field's value vector must change other fields' outputs,
	// demonstrating cross-field attention.
	rng := rand.New(rand.NewSource(11))
	l := NewInteractingLayer(3, 1, 3, rng)
	a := autograd.ParamRand(1, 3, 1, rng).Detach()
	b := autograd.ParamRand(1, 3, 1, rng).Detach()
	out1 := l.Forward([]*autograd.Tensor{a, b})[0].Clone()
	for i := range b.Data {
		b.Data[i] *= 2
	}
	out2 := l.Forward([]*autograd.Tensor{a, b})[0]
	var diff float64
	for i := range out1.Data {
		diff += math.Abs(out1.Data[i] - out2.Data[i])
	}
	if diff == 0 {
		t.Fatal("changing field b did not affect field a's attended output")
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := NewDense(2, 1, Linear, rng)
	x := autograd.New(1, 2, []float64{1, 2})
	autograd.Sum(autograd.Square(d.Forward(x))).Backward()
	ZeroGrads(d)
	for _, p := range d.Parameters() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatal("ZeroGrads left nonzero gradient")
			}
		}
	}
}
