// Package autograd implements a small reverse-mode automatic
// differentiation engine over dense float64 tensors.
//
// The engine is deliberately minimal: it supports exactly the operations
// needed by the CTR models and learning frameworks in this repository
// (dense layers, embeddings, attention, factorization machines, and the
// losses used for click-through-rate prediction). Tensors are at most
// two-dimensional; a scalar is represented as a 1x1 tensor.
//
// A computation graph is built implicitly as operations are applied.
// Calling Backward on a scalar output propagates gradients to every
// reachable tensor whose RequiresGrad flag is set. Graphs are single-use:
// build, Backward, then discard and rebuild on the next step.
package autograd

import (
	"fmt"
	"math"
	"math/rand"

	"mamdr/internal/autograd/kernels"
)

// Tensor is a dense, row-major matrix of float64 values that can
// participate in reverse-mode differentiation.
type Tensor struct {
	// Rows and Cols give the tensor's shape. A vector is 1xN or Nx1,
	// a scalar is 1x1.
	Rows, Cols int
	// Data holds Rows*Cols values in row-major order.
	Data []float64
	// Grad accumulates the gradient of the loss with respect to Data.
	// It is nil until the tensor participates in a backward pass (or is
	// a parameter created with Param, which always carries a Grad buffer).
	Grad []float64

	// rows, when non-nil, supplies the tensor's rows in place of Data
	// (see BindRows); only Gather reads through it.
	rows RowSource

	requiresGrad bool
	parents      []*Tensor
	backward     func()
	// pooled marks Data (and Grad) as drawn from the kernels buffer
	// arena; Release returns such buffers for reuse.
	pooled bool
}

// RowSource yields rows of a table that is not materialized in Data —
// an inference-time parameter binding composes or decodes each row
// only when a lookup asks for it. Implementations shared between
// concurrent forwards must be safe for concurrent use.
type RowSource interface {
	// Row writes row r (Cols values) into dst.
	Row(r int, dst []float64)
}

// BindRows makes Gather read the tensor's rows from src instead of
// Data; nil restores direct reads. The shape is unchanged, so a bound
// table may carry no Data at all. Every other op still reads Data:
// bind only tensors that are consumed through Gather alone (the
// models.EmbeddingTabler contract).
func (t *Tensor) BindRows(src RowSource) { t.rows = src }

// alloc returns a zeroed buffer from the kernels arena. Op results
// allocate through it so Release can recycle their memory.
func alloc(n int) []float64 { return kernels.Get(n) }

// New returns a tensor of the given shape backed by data. The slice is
// used directly (not copied); len(data) must equal rows*cols.
func New(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("autograd: New(%d, %d) with %d values", rows, cols, len(data)))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Zeros returns a rows x cols tensor of zeros.
func Zeros(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Scalar returns a 1x1 constant tensor holding v.
func Scalar(v float64) *Tensor { return New(1, 1, []float64{v}) }

// Param returns a rows x cols trainable tensor initialized with data.
// Trainable tensors always carry an allocated gradient buffer.
func Param(rows, cols int, data []float64) *Tensor {
	t := New(rows, cols, data)
	t.requiresGrad = true
	t.Grad = make([]float64, len(data))
	return t
}

// ParamZeros returns a zero-initialized trainable tensor.
func ParamZeros(rows, cols int) *Tensor {
	return Param(rows, cols, make([]float64, rows*cols))
}

// ParamRand returns a trainable tensor with entries drawn uniformly from
// [-scale, scale] using rng.
func ParamRand(rows, cols int, scale float64, rng *rand.Rand) *Tensor {
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = (rng.Float64()*2 - 1) * scale
	}
	return Param(rows, cols, data)
}

// ParamXavier returns a trainable tensor initialized with Glorot/Xavier
// uniform initialization for a layer with the given fan-in and fan-out.
func ParamXavier(rows, cols int, rng *rand.Rand) *Tensor {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return ParamRand(rows, cols, limit, rng)
}

// Size returns the number of elements in the tensor.
func (t *Tensor) Size() int { return t.Rows * t.Cols }

// RequiresGrad reports whether the tensor accumulates gradients.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// SetRequiresGrad marks the tensor trainable (or not), allocating the
// gradient buffer when enabling.
func (t *Tensor) SetRequiresGrad(v bool) {
	t.requiresGrad = v
	if v && t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
}

// At returns the element at row i, column j.
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns the element at row i, column j.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// Item returns the sole value of a scalar (1x1) tensor.
func (t *Tensor) Item() float64 {
	if t.Size() != 1 {
		panic(fmt.Sprintf("autograd: Item on %dx%d tensor", t.Rows, t.Cols))
	}
	return t.Data[0]
}

// Clone returns a deep copy of the tensor's value (graph edges and
// gradients are not copied). The clone preserves the RequiresGrad flag.
func (t *Tensor) Clone() *Tensor {
	data := make([]float64, len(t.Data))
	copy(data, t.Data)
	c := New(t.Rows, t.Cols, data)
	if t.requiresGrad {
		c.SetRequiresGrad(true)
	}
	return c
}

// ZeroGrad clears the accumulated gradient in place.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// ensureGrad allocates the gradient buffer if absent. Pooled (op
// result) tensors draw it from the arena so Release can recycle it.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		if t.pooled {
			t.Grad = alloc(len(t.Data))
		} else {
			t.Grad = make([]float64, len(t.Data))
		}
	}
}

// needsGraph reports whether an op over these inputs must record a
// backward edge.
func needsGraph(inputs ...*Tensor) bool {
	for _, in := range inputs {
		if in.requiresGrad || in.backward != nil || len(in.parents) > 0 {
			return true
		}
	}
	return false
}

// newResult builds the output tensor of an op, wiring graph edges when any
// input participates in differentiation. Every op allocates data via
// alloc, so the result is marked pooled for Release.
func newResult(rows, cols int, data []float64, bw func(), inputs ...*Tensor) *Tensor {
	out := New(rows, cols, data)
	out.pooled = true
	if needsGraph(inputs...) {
		out.parents = inputs
		out.backward = bw
		out.ensureGrad()
	}
	return out
}

// Backward runs reverse-mode differentiation from t, which must be a
// scalar. Gradients are accumulated into the Grad buffers of all
// reachable tensors that require gradients.
func (t *Tensor) Backward() {
	if t.Size() != 1 {
		panic(fmt.Sprintf("autograd: Backward on non-scalar %dx%d tensor", t.Rows, t.Cols))
	}
	t.ensureGrad()
	t.Grad[0] = 1

	// Topologically order the graph, then replay in reverse so each
	// node's gradient is complete before it propagates to its parents.
	// The post-order DFS uses an explicit stack: a recursive walk
	// overflows the goroutine stack on the very deep graphs produced
	// by long inner-loop chains, which is a fatal error Go cannot
	// recover from. Traversal order matches the recursive version
	// exactly (mark on push, emit after all children), preserving the
	// gradient accumulation order bit for bit.
	var order []*Tensor
	visited := map[*Tensor]bool{t: true}
	type frame struct {
		n   *Tensor
		idx int // next parent to descend into
	}
	stack := []frame{{n: t}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(f.n.parents) {
			p := f.n.parents[f.idx]
			f.idx++
			if !visited[p] {
				visited[p] = true
				stack = append(stack, frame{n: p})
			}
			continue
		}
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}

	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil {
			for _, p := range n.parents {
				// Interior nodes need Grad as conduits and trainable
				// leaves accumulate into it; plain data leaves are
				// left nil so their ops skip the wasted accumulation.
				if p.requiresGrad || p.parents != nil {
					p.ensureGrad()
				}
			}
			n.backward()
		}
	}
}

// Release walks the graph rooted at t and returns every op-result
// tensor's Data and Grad buffer to the kernels arena, then severs the
// graph edges. Leaves — parameters and caller-constructed inputs —
// are never touched. Call it once the step's outputs have been read
// (after Item/Backward/optimizer); the released tensors, and any
// Detach views of interior nodes, must not be used afterwards.
// Releasing finished graphs makes steady-state training and serving
// allocation-free in the op hot path.
func (t *Tensor) Release() {
	if !t.pooled && t.parents == nil {
		return
	}
	// No visited set: a popped node loses its edges and its pooled mark,
	// so a node reached along two edges is a no-op the second time and
	// the walk pushes each edge once.
	stack := []*Tensor{t}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stack = append(stack, n.parents...)
		if n.pooled {
			kernels.Put(n.Data)
			n.Data = nil
			if n.Grad != nil {
				kernels.Put(n.Grad)
				n.Grad = nil
			}
			n.pooled = false
		}
		n.parents = nil
		n.backward = nil
	}
}

// Detach returns a view of the tensor's data with no graph history and no
// gradient tracking. The returned tensor shares the Data slice.
func (t *Tensor) Detach() *Tensor {
	return &Tensor{Rows: t.Rows, Cols: t.Cols, Data: t.Data}
}

// String renders a compact description of the tensor.
func (t *Tensor) String() string {
	if t.Size() == 1 {
		return fmt.Sprintf("Tensor(%g)", t.Data[0])
	}
	return fmt.Sprintf("Tensor(%dx%d)", t.Rows, t.Cols)
}

func sameShape(a, b *Tensor) bool { return a.Rows == b.Rows && a.Cols == b.Cols }

func assertSameShape(op string, a, b *Tensor) {
	if !sameShape(a, b) {
		panic(fmt.Sprintf("autograd: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
