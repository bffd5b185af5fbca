package optim

import (
	"math"
	"math/rand"
	"testing"

	"mamdr/internal/autograd"
)

// quadratic builds loss = sum((x - target)^2); its minimum is x=target.
func quadratic(x *autograd.Tensor, target []float64) *autograd.Tensor {
	tt := autograd.New(x.Rows, x.Cols, append([]float64(nil), target...))
	return autograd.Sum(autograd.Square(autograd.Sub(x, tt)))
}

func converges(t *testing.T, opt Optimizer, steps int, tol float64) {
	t.Helper()
	x := autograd.Param(1, 3, []float64{5, -4, 2})
	target := []float64{1, 2, -3}
	for s := 0; s < steps; s++ {
		x.ZeroGrad()
		quadratic(x, target).Backward()
		opt.Step([]*autograd.Tensor{x})
	}
	for i, w := range target {
		if math.Abs(x.Data[i]-w) > tol {
			t.Fatalf("entry %d: got %g, want %g", i, x.Data[i], w)
		}
	}
}

func TestSGDConverges(t *testing.T)     { converges(t, NewSGD(0.1), 200, 1e-6) }
func TestAdamConverges(t *testing.T)    { converges(t, NewAdam(0.1), 600, 1e-3) }
func TestAdagradConverges(t *testing.T) { converges(t, NewAdagrad(1.0), 500, 1e-3) }

func TestSGDSingleStepExactUpdate(t *testing.T) {
	x := autograd.Param(1, 2, []float64{1, 2})
	x.Grad[0], x.Grad[1] = 0.5, -1
	NewSGD(0.1).Step([]*autograd.Tensor{x})
	if math.Abs(x.Data[0]-0.95) > 1e-12 || math.Abs(x.Data[1]-2.1) > 1e-12 {
		t.Fatalf("SGD step produced %v", x.Data)
	}
}

func TestOptimizerSkipsNilGrad(t *testing.T) {
	x := autograd.New(1, 2, []float64{1, 2}) // no grad buffer
	for _, opt := range []Optimizer{NewSGD(0.1), NewAdam(0.1), NewAdagrad(0.1)} {
		opt.Step([]*autograd.Tensor{x})
		if x.Data[0] != 1 || x.Data[1] != 2 {
			t.Fatal("optimizer modified a gradient-free tensor")
		}
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ~lr
	// regardless of gradient scale.
	x := autograd.Param(1, 1, []float64{0})
	x.Grad[0] = 1e-4
	a := NewAdam(0.01)
	a.Step([]*autograd.Tensor{x})
	if math.Abs(math.Abs(x.Data[0])-0.01) > 1e-3 {
		t.Fatalf("first Adam step = %g, want ~0.01", x.Data[0])
	}
}

func TestAdagradMonotonicallyShrinksSteps(t *testing.T) {
	x := autograd.Param(1, 1, []float64{0})
	a := NewAdagrad(1.0)
	var prevStep float64 = math.Inf(1)
	for i := 0; i < 5; i++ {
		before := x.Data[0]
		x.ZeroGrad()
		x.Grad[0] = 1
		a.Step([]*autograd.Tensor{x})
		step := math.Abs(x.Data[0] - before)
		if step > prevStep+1e-12 {
			t.Fatalf("step %d grew: %g > %g", i, step, prevStep)
		}
		prevStep = step
	}
}

// TestResetEqualsFreshOptimizer: an optimizer that has run, then Reset,
// steps float for float like optim.New — dense steps for all of them,
// and row steps (through a table first stepped by rows, then densely,
// before the Reset) for the two that take them — while keeping the
// table-sized buffers it already had and none of Adagrad's per-row ones.
func TestResetEqualsFreshOptimizer(t *testing.T) {
	builds := map[string]func() Optimizer{
		"sgd":     func() Optimizer { return New("sgd", 0.1) },
		"adam":    func() Optimizer { return New("adam", 0.05) },
		"adagrad": func() Optimizer { return New("adagrad", 0.5) },
	}
	for name, build := range builds {
		rng := rand.New(rand.NewSource(11))
		used, fresh := build(), build()
		rs, byRows := used.(RowStepper)

		// Give the used optimizer a history the fresh one lacks.
		a, b := sparseGradTable(rng, []int{1, 4})
		small := autograd.Param(1, 3, []float64{1, 2, 3})
		for s := 0; s < 3; s++ {
			refill(rng, a, b, []int{s, 5})
			small.Grad[0], small.Grad[1], small.Grad[2] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			if byRows && s < 2 {
				rs.StepRows(a, []int{s, 5})
			} else {
				used.Step([]*autograd.Tensor{a})
			}
			used.Step([]*autograd.Tensor{small})
		}
		used.Reset()
		copy(a.Data, b.Data)

		if ad, ok := used.(*Adagrad); ok && len(ad.rowG2) != 0 {
			t.Errorf("adagrad: Reset kept %d row accumulators", len(ad.rowG2))
		}
		for s := 0; s < 4; s++ {
			rows := []int{(s + 2) % 8, 7}
			refill(rng, a, b, rows)
			if byRows && s%2 == 0 {
				rs.StepRows(a, rows)
				fresh.(RowStepper).StepRows(b, rows)
			} else {
				used.Step([]*autograd.Tensor{a})
				fresh.Step([]*autograd.Tensor{b})
			}
			if !sameBits(a.Data, b.Data) {
				t.Fatalf("%s: step %d after Reset differs from a fresh optimizer", name, s)
			}
		}
	}
}

// TestResetKeepsItsBuffers: restarting an optimizer in a loop allocates
// its table-sized state once, not per restart.
func TestResetKeepsItsBuffers(t *testing.T) {
	x := autograd.Param(64, 8, make([]float64, 64*8))
	for i := range x.Grad {
		x.Grad[i] = 1
	}
	params := []*autograd.Tensor{x}
	for _, opt := range []Optimizer{NewAdam(0.1), NewAdagrad(0.1)} {
		opt.Step(params)
		if n := testing.AllocsPerRun(20, func() {
			opt.Reset()
			opt.Step(params)
		}); n != 0 {
			t.Errorf("%T: Reset+Step allocates %v times", opt, n)
		}
	}
}

func TestNewRegistry(t *testing.T) {
	if _, ok := New("sgd", 0.1).(*SGD); !ok {
		t.Fatal("New(sgd) wrong type")
	}
	if _, ok := New("adam", 0.1).(*Adam); !ok {
		t.Fatal("New(adam) wrong type")
	}
	if _, ok := New("adagrad", 0.1).(*Adagrad); !ok {
		t.Fatal("New(adagrad) wrong type")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown optimizer")
		}
	}()
	New("lbfgs", 0.1)
}

func TestOptimizersOnNoisyProblemStayFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, opt := range []Optimizer{NewSGD(0.01), NewAdam(0.01), NewAdagrad(0.1)} {
		x := autograd.Param(1, 4, []float64{1, -1, 2, -2})
		for s := 0; s < 100; s++ {
			x.ZeroGrad()
			for i := range x.Grad {
				x.Grad[i] = rng.NormFloat64() * 10
			}
			opt.Step([]*autograd.Tensor{x})
		}
		for _, v := range x.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%T produced non-finite parameter", opt)
			}
		}
	}
}
