// Package paramvec provides flat-vector algebra over lists of parameter
// tensors. The MAMDR learning frameworks (Domain Negotiation, Domain
// Regularization, Reptile, MAML, PCGrad) are all expressed as geometry on
// parameter vectors — snapshot an initial point, run inner steps, move
// toward an endpoint, project gradients — and this package supplies those
// primitives without copying parameters into a single contiguous slice.
package paramvec

import (
	"fmt"
	"math"

	"mamdr/internal/autograd"
	"mamdr/internal/autograd/kernels"
)

// Vector is a value-copy of a parameter list, aligned entry for entry
// with the tensors it was snapshotted from.
type Vector [][]float64

// Snapshot copies the current values of params into a new Vector.
func Snapshot(params []*autograd.Tensor) Vector {
	v := make(Vector, len(params))
	for i, p := range params {
		v[i] = append([]float64(nil), p.Data...)
	}
	return v
}

// SnapshotGrads copies the current gradients of params into a new Vector.
// Parameters without gradient buffers contribute zero entries. What the
// buffers hold is the caller's business: one backward's gradient after a
// framework.Stepper step or DomainGradient, anything after a dense writer.
func SnapshotGrads(params []*autograd.Tensor) Vector {
	v := make(Vector, len(params))
	for i, p := range params {
		if p.Grad == nil {
			v[i] = make([]float64, len(p.Data))
			continue
		}
		v[i] = append([]float64(nil), p.Grad...)
	}
	return v
}

// Restore writes the vector's values back into params.
func Restore(params []*autograd.Tensor, v Vector) {
	mustAlign(params, v)
	for i, p := range params {
		copy(p.Data, v[i])
	}
}

// Clone deep-copies the vector.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	for i := range v {
		c[i] = append([]float64(nil), v[i]...)
	}
	return c
}

// Zero returns a zero vector with the same structure as v.
func (v Vector) Zero() Vector {
	z := make(Vector, len(v))
	for i := range v {
		z[i] = make([]float64, len(v[i]))
	}
	return z
}

// Len returns the total number of scalar entries.
func (v Vector) Len() int {
	n := 0
	for i := range v {
		n += len(v[i])
	}
	return n
}

// Sum returns v + w into a freshly allocated vector in a single pass.
// It is Add without the intermediate clone: Clone-then-Axpy writes
// every element twice, and on the serving path — which composes
// θ_S + θ_d once per (snapshot, domain) — the second pass over
// multi-megabyte vectors is measurable. Element order and expression
// (v[i][j] + w[i][j]) match Add bit for bit.
func Sum(v, w Vector) Vector {
	mustMatch(v, w)
	out := v.Zero()
	for i := range v {
		kernels.AddTo(out[i], v[i], w[i])
	}
	return out
}

// Add returns v + w.
func Add(v, w Vector) Vector {
	mustMatch(v, w)
	out := v.Clone()
	for i := range out {
		for j := range out[i] {
			out[i][j] += w[i][j]
		}
	}
	return out
}

// Sub returns v - w.
func Sub(v, w Vector) Vector {
	mustMatch(v, w)
	out := v.Clone()
	for i := range out {
		for j := range out[i] {
			out[i][j] -= w[i][j]
		}
	}
	return out
}

// Scale returns s * v.
func Scale(v Vector, s float64) Vector {
	out := v.Clone()
	for i := range out {
		for j := range out[i] {
			out[i][j] *= s
		}
	}
	return out
}

// AxpyInto performs params += s * v in place on the tensors.
func AxpyInto(params []*autograd.Tensor, s float64, v Vector) {
	mustAlign(params, v)
	for i, p := range params {
		for j := range p.Data {
			p.Data[j] += s * v[i][j]
		}
	}
}

// Axpy performs dst += s * v in place on the vector dst.
func Axpy(dst Vector, s float64, v Vector) {
	mustMatch(dst, v)
	for i := range dst {
		for j := range dst[i] {
			dst[i][j] += s * v[i][j]
		}
	}
}

// Dot returns the inner product <v, w>.
func Dot(v, w Vector) float64 {
	mustMatch(v, w)
	var s float64
	for i := range v {
		for j := range v[i] {
			s += v[i][j] * w[i][j]
		}
	}
	return s
}

// Norm returns the L2 norm of v.
func Norm(v Vector) float64 { return math.Sqrt(Dot(v, v)) }

// CosineSimilarity returns <v,w>/(|v||w|), or 0 when either vector is
// zero. It is the diagnostic used to measure domain conflict.
func CosineSimilarity(v, w Vector) float64 {
	nv, nw := Norm(v), Norm(w)
	if nv == 0 || nw == 0 {
		return 0
	}
	return Dot(v, w) / (nv * nw)
}

// ProjectOut removes from v its component along w when they conflict
// (negative inner product), returning the PCGrad projection
// v - (<v,w>/|w|^2) w. If the vectors do not conflict, v is returned
// unchanged (as a clone).
func ProjectOut(v, w Vector) Vector {
	d := Dot(v, w)
	out := v.Clone()
	if d >= 0 {
		return out
	}
	ww := Dot(w, w)
	if ww == 0 {
		return out
	}
	Axpy(out, -d/ww, w)
	return out
}

// AddScaledDiffInto implements the meta-update params += s*(endpoint -
// base) used by the outer loops of DN, DR and Reptile (paper Eq. 3 and
// Eq. 8).
func AddScaledDiffInto(params []*autograd.Tensor, s float64, endpoint, base Vector) {
	mustMatch(endpoint, base)
	mustAlign(params, base)
	for i, p := range params {
		for j := range p.Data {
			p.Data[j] += s * (endpoint[i][j] - base[i][j])
		}
	}
}

func mustMatch(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("paramvec: vector length %d vs %d", len(v), len(w)))
	}
	for i := range v {
		if len(v[i]) != len(w[i]) {
			panic(fmt.Sprintf("paramvec: segment %d length %d vs %d", i, len(v[i]), len(w[i])))
		}
	}
}

func mustAlign(params []*autograd.Tensor, v Vector) {
	if len(params) != len(v) {
		panic(fmt.Sprintf("paramvec: %d tensors vs %d segments", len(params), len(v)))
	}
	for i, p := range params {
		if len(p.Data) != len(v[i]) {
			panic(fmt.Sprintf("paramvec: tensor %d size %d vs segment %d", i, len(p.Data), len(v[i])))
		}
	}
}
