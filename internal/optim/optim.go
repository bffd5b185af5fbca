// Package optim implements the gradient-descent optimizers used by the
// MAMDR learning frameworks: SGD, Adam, and Adagrad. Inner and outer
// loops of Domain Negotiation can use different optimizers (the paper's
// industrial configuration uses SGD inside and Adagrad outside), so
// optimizers keep per-tensor state keyed by parameter identity and can be
// Reset when the parameter set they track is rebound.
package optim

import (
	"math"

	"mamdr/internal/autograd"
	"mamdr/internal/autograd/kernels"
)

// Adam's defaults (Kingma & Ba, 2015) and the epsilon Adam and Adagrad
// add to their denominators.
const (
	beta1 = 0.9
	beta2 = 0.999
	eps   = 1e-8
)

// Optimizer updates parameters in place from their accumulated
// gradients. Implementations keep internal state (adaptive moments) per
// parameter tensor.
type Optimizer interface {
	// Step applies one update to every parameter using its Grad buffer.
	// Gradients are not cleared; callers zero them between steps.
	Step(params []*autograd.Tensor)
	// Reset returns the optimizer to the state of a freshly built one:
	// the next steps are float for float those of optim.New. Buffers as
	// large as the tensors already stepped are cleared in place and kept
	// for them, so a loop that restarts its optimizer allocates once.
	Reset()
}

// RowStepper is implemented by the optimizers whose Step leaves an entry
// with a +0 gradient — value and optimizer state — bit for bit as it is:
// SGD and Adagrad. It is what lets a train step skip the rows of an
// embedding table its batch did not gather, since their gradient is zero.
// Adam does not qualify (a row keeps moving on its decaying moments after
// its gradient returns to zero) and is stepped densely: there is no lazy
// variant of it here.
type RowStepper interface {
	// StepRows applies to the given rows of p exactly what Step applies
	// to them, and nothing to any other row.
	StepRows(p *autograd.Tensor, rows []int)
}

// SGD is plain stochastic gradient descent.
type SGD struct{ lr float64 }

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{lr: lr} }

// Step implements Optimizer.
func (s *SGD) Step(params []*autograd.Tensor) {
	for _, p := range params {
		for i, g := range p.Grad {
			p.Data[i] -= s.lr * g
		}
	}
}

// StepRows implements RowStepper: x - lr*0 is x.
func (s *SGD) StepRows(p *autograd.Tensor, rows []int) {
	for _, r := range rows {
		data, grad := p.Data[r*p.Cols:(r+1)*p.Cols], p.Grad[r*p.Cols:(r+1)*p.Cols]
		for i, g := range grad {
			data[i] -= s.lr * g
		}
	}
}

// Reset implements Optimizer: SGD keeps no state.
func (s *SGD) Reset() {}

// Adam implements the Adam optimizer (Kingma & Ba, 2015). The per-element
// update is the active kernel backend's AdamStep, bit-identical on every
// backend.
type Adam struct {
	lr   float64
	step int
	m, v map[*autograd.Tensor][]float64
}

// NewAdam returns Adam with the standard defaults beta1=0.9, beta2=0.999,
// eps=1e-8.
func NewAdam(lr float64) *Adam { return &Adam{lr: lr} }

// Step implements Optimizer.
func (a *Adam) Step(params []*autograd.Tensor) {
	if a.m == nil {
		a.m = map[*autograd.Tensor][]float64{}
		a.v = map[*autograd.Tensor][]float64{}
	}
	a.step++
	c1 := 1 - math.Pow(beta1, float64(a.step))
	c2 := 1 - math.Pow(beta2, float64(a.step))
	be := kernels.Default()
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = make([]float64, len(p.Data))
			v = make([]float64, len(p.Data))
			a.m[p] = m
			a.v[p] = v
		}
		be.AdamStep(p.Data, p.Grad, m, v, beta1, beta2, a.lr, eps, c1, c2)
	}
}

// Reset implements Optimizer.
func (a *Adam) Reset() {
	clearAll(a.m)
	clearAll(a.v)
	a.step = 0
}

// Adagrad implements the Adagrad optimizer (Duchi et al., 2011), used by
// the paper's industrial outer loop.
type Adagrad struct {
	lr float64
	g2 map[*autograd.Tensor][]float64
	// rowG2 holds the accumulators of tensors that have only ever been
	// stepped by rows, one Cols-wide buffer per row seen: a fresh
	// optimizer stepping a few rows of an embedding table must not
	// allocate (and clear) a table-sized buffer to do it.
	rowG2 map[*autograd.Tensor]map[int][]float64
}

// NewAdagrad returns Adagrad with eps=1e-8.
func NewAdagrad(lr float64) *Adagrad { return &Adagrad{lr: lr} }

// accumulator returns p's full-size accumulator, creating it — from the
// row accumulators, if StepRows got to p first — when absent.
func (a *Adagrad) accumulator(p *autograd.Tensor) []float64 {
	if s := a.g2[p]; s != nil {
		return s
	}
	if a.g2 == nil {
		a.g2 = map[*autograd.Tensor][]float64{}
	}
	s := make([]float64, len(p.Data))
	for r, acc := range a.rowG2[p] {
		copy(s[r*p.Cols:], acc)
	}
	delete(a.rowG2, p)
	a.g2[p] = s
	return s
}

// Step implements Optimizer.
func (a *Adagrad) Step(params []*autograd.Tensor) {
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		s := a.accumulator(p)
		for i, g := range p.Grad {
			s[i] += g * g
			p.Data[i] -= a.lr * g / (math.Sqrt(s[i]) + eps)
		}
	}
}

// StepRows implements RowStepper: a zero gradient adds nothing to the
// accumulator and 0/(sqrt(s)+eps) to the value.
func (a *Adagrad) StepRows(p *autograd.Tensor, rows []int) {
	full := a.g2[p]
	byRow := a.rowG2[p]
	if full == nil && byRow == nil {
		if a.rowG2 == nil {
			a.rowG2 = map[*autograd.Tensor]map[int][]float64{}
		}
		byRow = map[int][]float64{}
		a.rowG2[p] = byRow
	}
	for _, r := range rows {
		lo, hi := r*p.Cols, (r+1)*p.Cols
		var s []float64
		if full != nil {
			s = full[lo:hi]
		} else if s = byRow[r]; s == nil {
			s = make([]float64, p.Cols)
			byRow[r] = s
		}
		data, grad := p.Data[lo:hi], p.Grad[lo:hi]
		for i, g := range grad {
			s[i] += g * g
			data[i] -= a.lr * g / (math.Sqrt(s[i]) + eps)
		}
	}
}

// Reset implements Optimizer. The row accumulators are dropped, not
// cleared: they exist so that stepping a few rows of a table costs those
// rows, and clearing every row an earlier run touched would not.
func (a *Adagrad) Reset() {
	clearAll(a.g2)
	a.rowG2 = nil
}

// clearAll zeroes every per-tensor state buffer in place.
func clearAll(state map[*autograd.Tensor][]float64) {
	for _, buf := range state {
		clear(buf)
	}
}

// New builds an optimizer by name ("sgd", "adam", "adagrad"); it panics
// on an unknown name. It is the registry used by command-line tools.
func New(name string, lr float64) Optimizer {
	switch name {
	case "sgd":
		return NewSGD(lr)
	case "adam":
		return NewAdam(lr)
	case "adagrad":
		return NewAdagrad(lr)
	default:
		panic("optim: unknown optimizer " + name)
	}
}
