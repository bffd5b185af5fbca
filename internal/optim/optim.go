// Package optim implements the gradient-descent optimizers used by the
// MAMDR learning frameworks: SGD (with optional momentum), Adam, and
// Adagrad. Inner and outer loops of Domain Negotiation can use different
// optimizers (the paper's industrial configuration uses SGD inside and
// Adagrad outside), so optimizers keep per-tensor state keyed by
// parameter identity and can be Reset when the parameter set they track
// is rebound.
package optim

import (
	"math"

	"mamdr/internal/autograd"
	"mamdr/internal/autograd/kernels"
)

// Optimizer updates parameters in place from their accumulated
// gradients. Implementations keep internal state (momentum, adaptive
// moments) per parameter tensor.
type Optimizer interface {
	// Step applies one update to every parameter using its Grad buffer.
	// Gradients are not cleared; callers zero them between steps.
	Step(params []*autograd.Tensor)
	// SetLR changes the learning rate for subsequent steps.
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
	// Reset returns the optimizer to the state of a freshly built one:
	// the next steps are float for float those of optim.New. Buffers as
	// large as the tensors already stepped are cleared in place and kept
	// for them, so a loop that restarts its optimizer allocates once.
	Reset()
}

// RowStepper is implemented by optimizers that can apply a step to some
// rows of a tensor only. It is what lets a train step skip the rows of
// an embedding table its batch did not gather: their gradient is zero,
// and when ZeroGradIsNoOp holds, Step would leave them — value and
// optimizer state — bit for bit as they are. Plain SGD and Adagrad
// qualify. Momentum and Adam do not (a row keeps moving on its decaying
// moments after its gradient returns to zero) and are stepped densely:
// there is no lazy variant of either here.
type RowStepper interface {
	// ZeroGradIsNoOp reports whether Step leaves an entry whose gradient
	// is +0 unchanged, so that StepRows over the rows that carry gradient
	// equals Step.
	ZeroGradIsNoOp() bool
	// StepRows applies to the given rows of p exactly what Step applies
	// to them, and nothing to any other row.
	StepRows(p *autograd.Tensor, rows []int)
}

// SGD is stochastic gradient descent with optional classical momentum.
type SGD struct {
	lr       float64
	Momentum float64
	velocity map[*autograd.Tensor][]float64
}

// NewSGD returns an SGD optimizer with the given learning rate and no
// momentum.
func NewSGD(lr float64) *SGD { return &SGD{lr: lr} }

// NewSGDMomentum returns an SGD optimizer with classical momentum.
func NewSGDMomentum(lr, momentum float64) *SGD {
	return &SGD{lr: lr, Momentum: momentum}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*autograd.Tensor) {
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		if s.Momentum == 0 {
			for i, g := range p.Grad {
				p.Data[i] -= s.lr * g
			}
			continue
		}
		if s.velocity == nil {
			s.velocity = map[*autograd.Tensor][]float64{}
		}
		v := s.velocity[p]
		if v == nil {
			v = make([]float64, len(p.Data))
			s.velocity[p] = v
		}
		for i, g := range p.Grad {
			v[i] = s.Momentum*v[i] + g
			p.Data[i] -= s.lr * v[i]
		}
	}
}

// ZeroGradIsNoOp implements RowStepper: x - lr*0 is x; with momentum the
// velocity keeps moving x.
func (s *SGD) ZeroGradIsNoOp() bool { return s.Momentum == 0 }

// StepRows implements RowStepper (momentum-free SGD only).
func (s *SGD) StepRows(p *autograd.Tensor, rows []int) {
	if s.Momentum != 0 {
		panic("optim: StepRows on SGD with momentum")
	}
	for _, r := range rows {
		data, grad := p.Data[r*p.Cols:(r+1)*p.Cols], p.Grad[r*p.Cols:(r+1)*p.Cols]
		for i, g := range grad {
			data[i] -= s.lr * g
		}
	}
}

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// Reset implements Optimizer.
func (s *SGD) Reset() { clearAll(s.velocity) }

// Adam implements the Adam optimizer (Kingma & Ba, 2015). The per-element
// update is the active kernel backend's AdamStep, bit-identical on every
// backend.
type Adam struct {
	lr           float64
	Beta1, Beta2 float64
	Eps          float64
	step         int
	m, v         map[*autograd.Tensor][]float64
}

// NewAdam returns Adam with the standard defaults beta1=0.9, beta2=0.999,
// eps=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*autograd.Tensor) {
	if a.m == nil {
		a.m = map[*autograd.Tensor][]float64{}
		a.v = map[*autograd.Tensor][]float64{}
	}
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
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
		be.AdamStep(p.Data, p.Grad, m, v, a.Beta1, a.Beta2, a.lr, a.Eps, c1, c2)
	}
}

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// Reset implements Optimizer.
func (a *Adam) Reset() {
	clearAll(a.m)
	clearAll(a.v)
	a.step = 0
}

// Adagrad implements the Adagrad optimizer (Duchi et al., 2011), used by
// the paper's industrial outer loop.
type Adagrad struct {
	lr  float64
	Eps float64
	g2  map[*autograd.Tensor][]float64
	// rowG2 holds the accumulators of tensors that have only ever been
	// stepped by rows, one Cols-wide buffer per row seen: a fresh
	// optimizer stepping a few rows of an embedding table must not
	// allocate (and clear) a table-sized buffer to do it.
	rowG2 map[*autograd.Tensor]map[int][]float64
}

// NewAdagrad returns Adagrad with eps=1e-8.
func NewAdagrad(lr float64) *Adagrad { return &Adagrad{lr: lr, Eps: 1e-8} }

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
			p.Data[i] -= a.lr * g / (math.Sqrt(s[i]) + a.Eps)
		}
	}
}

// ZeroGradIsNoOp implements RowStepper: a zero gradient adds nothing to
// the accumulator and 0/(sqrt(s)+eps) to the value.
func (a *Adagrad) ZeroGradIsNoOp() bool { return true }

// StepRows implements RowStepper.
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
			data[i] -= a.lr * g / (math.Sqrt(s[i]) + a.Eps)
		}
	}
}

// SetLR implements Optimizer.
func (a *Adagrad) SetLR(lr float64) { a.lr = lr }

// LR implements Optimizer.
func (a *Adagrad) LR() float64 { return a.lr }

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

// ClipGradNorm scales all gradients down so their global L2 norm does not
// exceed maxNorm. It returns the pre-clip norm. It reads and scales every
// entry, so it is exact on row-sparse table gradients too (zero rows add
// nothing to the norm and stay zero) as long as the buffers hold one
// backward's gradient — see framework.Stepper.
func ClipGradNorm(params []*autograd.Tensor, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.Grad {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= scale
			}
		}
	}
	return norm
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
