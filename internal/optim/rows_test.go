package optim

import (
	"math"
	"math/rand"
	"testing"

	"mamdr/internal/autograd"
)

// sparseGradTable returns two identical 8×3 tables and fills both Grad
// buffers with the same random gradient on the given rows, zero elsewhere.
func sparseGradTable(rng *rand.Rand, rows []int) (a, b *autograd.Tensor) {
	data := make([]float64, 8*3)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	a = autograd.Param(8, 3, append([]float64(nil), data...))
	b = autograd.Param(8, 3, append([]float64(nil), data...))
	refill(rng, a, b, rows)
	return a, b
}

// refill replaces both gradients with one new random gradient on rows.
func refill(rng *rand.Rand, a, b *autograd.Tensor, rows []int) {
	a.ZeroGrad()
	b.ZeroGrad()
	for _, r := range rows {
		for j := 0; j < 3; j++ {
			g := rng.NormFloat64()
			a.Grad[r*3+j], b.Grad[r*3+j] = g, g
		}
	}
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStepRowsEqualsStepOnSparseGradients: for the optimizers that step
// by rows, stepping only the rows that carry gradient is bit for bit the
// dense step — over several steps with changing row sets, through a
// switch to dense steps (Adagrad folds its row accumulators into the
// full one) and through CaptureState.
func TestStepRowsEqualsStepOnSparseGradients(t *testing.T) {
	for name, build := range map[string]func() Optimizer{
		"sgd":     func() Optimizer { return NewSGD(0.1) },
		"adagrad": func() Optimizer { return NewAdagrad(0.5) },
	} {
		rng := rand.New(rand.NewSource(3))
		dense, byRows := build(), build()
		rs := byRows.(RowStepper)
		rowSets := [][]int{{1, 4}, {4, 6, 7}, {0}, {1, 4}}
		a, b := sparseGradTable(rng, rowSets[0])
		for step, rows := range rowSets {
			if step > 0 {
				refill(rng, a, b, rows)
			}
			dense.Step([]*autograd.Tensor{a})
			rs.StepRows(b, rows)
			if !sameBits(a.Data, b.Data) {
				t.Fatalf("%s step %d: StepRows differs from Step", name, step)
			}
		}
		// -0.0 survives a zero-gradient step on both paths.
		a.Data[2*3], b.Data[2*3] = math.Copysign(0, -1), math.Copysign(0, -1)
		refill(rng, a, b, []int{5})
		dense.Step([]*autograd.Tensor{a})
		rs.StepRows(b, []int{5})
		if !sameBits(a.Data, b.Data) || !math.Signbit(a.Data[2*3]) {
			t.Fatalf("%s: a zero gradient changed a -0.0 entry", name)
		}
		// Row-stepped so far, dense from here on.
		for step := 0; step < 2; step++ {
			refill(rng, a, b, []int{1, 2, 3})
			dense.Step([]*autograd.Tensor{a})
			byRows.Step([]*autograd.Tensor{b})
			if !sameBits(a.Data, b.Data) {
				t.Fatalf("%s: a dense step after row steps lost optimizer state", name)
			}
		}
	}

	// Row accumulators are part of the captured state.
	rng := rand.New(rand.NewSource(4))
	_, b := sparseGradTable(rng, []int{6})
	ada := NewAdagrad(0.5)
	ada.StepRows(b, []int{6})
	if g2 := ada.CaptureState([]*autograd.Tensor{b}).Slots["g2"]; len(g2) != 1 || g2[0] == nil || g2[0][6*3] == 0 || g2[0][0] != 0 {
		t.Fatalf("CaptureState after row steps lost the row accumulators: %v", g2)
	}
}

// TestOnlyZeroGradNoOpOptimizersStepByRows pins who may be stepped by
// rows: Adam does not implement RowStepper, because it keeps moving an
// entry whose gradient has returned to zero, so it is not made lazy.
func TestOnlyZeroGradNoOpOptimizersStepByRows(t *testing.T) {
	opt := Optimizer(NewAdam(0.01))
	if _, ok := opt.(RowStepper); ok {
		t.Fatal("Adam must not implement RowStepper")
	}
	x := autograd.Param(2, 1, []float64{1, 1})
	x.Grad[0] = 1
	opt.Step([]*autograd.Tensor{x})
	x.ZeroGrad()
	before := x.Data[0]
	opt.Step([]*autograd.Tensor{x})
	if x.Data[0] == before {
		t.Fatal("adam: an entry with zero gradient stood still; the dense loop would no longer be needed")
	}
	if x.Data[1] != 1 {
		t.Fatal("adam moved an entry that never had gradient")
	}
}
