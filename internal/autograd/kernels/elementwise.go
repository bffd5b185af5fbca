package kernels

import "math"

// Elementwise and reduction kernels shared by both backends. These are
// memory-bound, so "vectorized" here means tight range loops with the
// bounds checks hoisted and, for reductions, 4x unrolling that keeps a
// single accumulator adding in ascending index order (sequential adds
// through one register reassociate nothing, so results stay
// bit-identical to the straight loop). The vector add under AddTo,
// AccumAdd, ColSumAdd and the fused bias runs on addAVX2 where the build
// and the CPU have it: one VADDPD is four of the loop's additions.

// vecAVX2 selects the elementwise assembly routines (addAVX2, and
// adamAVX2 under Blocked.AdamStep): hasAVX2. Only tests write it, to run
// both paths on one machine.
var vecAVX2 = hasAVX2

// add sets dst[i] = a[i] + b[i]; dst may be a or b itself. The multiple
// of four in front goes to addAVX2, the rest to the Go loop.
func add(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := 0
	if vecAVX2 && len(dst) >= 4 {
		n = len(dst) &^ 3
		addAVX2(&dst[0], &a[0], &b[0], n)
	}
	for i := n; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// AddTo sets dst[i] = a[i] + b[i].
func AddTo(dst, a, b []float64) { add(dst, a, b) }

// SubTo sets dst[i] = a[i] - b[i].
func SubTo(dst, a, b []float64) {
	b = b[:len(dst)]
	for i, av := range a[:len(dst)] {
		dst[i] = av - b[i]
	}
}

// MulTo sets dst[i] = a[i] * b[i].
func MulTo(dst, a, b []float64) {
	b = b[:len(dst)]
	for i, av := range a[:len(dst)] {
		dst[i] = av * b[i]
	}
}

// ScaleTo sets dst[i] = a[i] * s.
func ScaleTo(dst, a []float64, s float64) {
	for i, av := range a[:len(dst)] {
		dst[i] = av * s
	}
}

// AddScalarTo sets dst[i] = a[i] + s.
func AddScalarTo(dst, a []float64, s float64) {
	for i, av := range a[:len(dst)] {
		dst[i] = av + s
	}
}

// AccumAdd accumulates dst[i] += g[i].
func AccumAdd(dst, g []float64) { add(dst, dst, g) }

// AccumSub accumulates dst[i] -= g[i].
func AccumSub(dst, g []float64) {
	for i, gv := range g[:len(dst)] {
		dst[i] -= gv
	}
}

// AxpyAdd accumulates dst[i] += g[i] * s.
func AxpyAdd(dst, g []float64, s float64) {
	for i, gv := range g[:len(dst)] {
		dst[i] += gv * s
	}
}

// MulAdd accumulates dst[i] += g[i] * b[i].
func MulAdd(dst, g, b []float64) {
	b = b[:len(dst)]
	for i, gv := range g[:len(dst)] {
		dst[i] += gv * b[i]
	}
}

// Sum reduces a to a single value, accumulating in ascending order.
func Sum(a []float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i]
		s += a[i+1]
		s += a[i+2]
		s += a[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i]
	}
	return s
}

// Dot reduces <a, b> with a single accumulator in ascending order.
func Dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// ColSumAdd accumulates the column sums of the m×n matrix a into dst
// (len n), row by row so each dst[j] sees ascending row order.
func ColSumAdd(dst, a []float64, m, n int) {
	dst = dst[:n]
	for i := 0; i < m; i++ {
		add(dst, dst, a[i*n:(i+1)*n])
	}
}

// SigmoidTo sets dst[i] = 1/(1+exp(-a[i])).
func SigmoidTo(dst, a []float64) {
	for i, v := range a[:len(dst)] {
		dst[i] = 1 / (1 + math.Exp(-v))
	}
}

// DequantRowTo sets dst[i] = float64(q[i]) * float64(scale) — the int8
// symmetric-dequantization kernel behind quantized embedding snapshots
// (internal/quant). The scale widens to float64 before the multiply so
// decode is a single correctly-rounded operation per element.
func DequantRowTo(dst []float64, q []int8, scale float32) {
	s := float64(scale)
	for i, v := range q[:len(dst)] {
		dst[i] = float64(v) * s
	}
}

// positive is all ones when v > 0 and zero otherwise (v ≤ 0 or NaN):
// the mask the ReLU loops AND a value's bits with. The compiler makes the
// select a CMOV, so the loops do not branch on a sign that goes either
// way at random.
func positive(v float64) uint64 {
	var keep uint64
	if v > 0 {
		keep = ^uint64(0)
	}
	return keep
}

// ReLUTo sets dst[i] = a[i] when a[i] > 0 and +0 otherwise (dst need
// not be pre-zeroed).
func ReLUTo(dst, a []float64) {
	for i, v := range a[:len(dst)] {
		dst[i] = math.Float64frombits(math.Float64bits(v) & positive(v))
	}
}

// LeakyReLUTo sets dst[i] = a[i] when a[i] > 0 and slope*a[i] otherwise.
func LeakyReLUTo(dst, a []float64, slope float64) {
	for i, v := range a[:len(dst)] {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = slope * v
		}
	}
}

// TanhTo sets dst[i] = tanh(a[i]).
func TanhTo(dst, a []float64) {
	for i, v := range a[:len(dst)] {
		dst[i] = math.Tanh(v)
	}
}

// ExpTo sets dst[i] = exp(a[i]).
func ExpTo(dst, a []float64) {
	for i, v := range a[:len(dst)] {
		dst[i] = math.Exp(v)
	}
}

// SquareTo sets dst[i] = a[i]*a[i].
func SquareTo(dst, a []float64) {
	for i, v := range a[:len(dst)] {
		dst[i] = v * v
	}
}

// actInPlace applies the activation to row in place, with exactly the
// same expressions as the standalone autograd activation ops so the
// fused dense forward is bit-identical to the composed one.
func actInPlace(row []float64, act Act, slope float64) {
	switch act {
	case ActIdentity:
	case ActReLU:
		ReLUTo(row, row)
	case ActSigmoid:
		SigmoidTo(row, row)
	case ActTanh:
		TanhTo(row, row)
	case ActLeakyReLU:
		LeakyReLUTo(row, row, slope)
	default:
		panic("kernels: unknown activation")
	}
}

// ActGradTo sets dst[i] = g[i] * act' where out is the activation's
// *output* (every supported activation's derivative is
// recoverable from its output: the ReLU family preserves sign, and
// sigmoid/tanh derivatives are functions of the output). Expression
// order matches the standalone activation backward ops bit for bit.
func ActGradTo(dst, out, g []float64, act Act, slope float64) {
	out = out[:len(dst)]
	g = g[:len(dst)]
	switch act {
	case ActIdentity:
		copy(dst, g)
	case ActReLU:
		for i, s := range out {
			dst[i] = math.Float64frombits(math.Float64bits(g[i]) & positive(s))
		}
	case ActSigmoid:
		for i, s := range out {
			dst[i] = g[i] * s * (1 - s)
		}
	case ActTanh:
		for i, s := range out {
			dst[i] = g[i] * (1 - s*s)
		}
	case ActLeakyReLU:
		for i, s := range out {
			if s > 0 {
				dst[i] = g[i]
			} else {
				dst[i] = g[i] * slope
			}
		}
	default:
		panic("kernels: unknown activation")
	}
}

// adamGo is one Adam update (Kingma & Ba) of data from grad, advancing
// the moments m and v in place; c1 and c2 are the bias corrections
// 1−β1^t and 1−β2^t of the step. It is the whole of Naive.AdamStep, the
// tail of Blocked's, and the order of operations adamAVX2 reproduces.
func adamGo(data, grad, m, v []float64, beta1, beta2, lr, eps, c1, c2 float64) {
	grad, m, v = grad[:len(data)], m[:len(data)], v[:len(data)]
	for i, g := range grad {
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		mh := m[i] / c1
		vh := v[i] / c2
		data[i] -= lr * mh / (math.Sqrt(vh) + eps)
	}
}
