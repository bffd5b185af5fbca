package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// adamSpecials are the inputs on which a vector Adam step could part from
// the Go loop: signed zeros, infinities, NaN, subnormals (whose squares
// and quotients underflow), and gradients whose square overflows.
var adamSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.5e-310, 1e200, -1e300,
}

// adamBuffer is n values, a tenth of them adamSpecials, in a slice that
// starts 8 bytes into its allocation.
func adamBuffer(rng *rand.Rand, n int, nonNegative bool) []float64 {
	buf := unaligned(make([]float64, n+1))
	for i := range buf {
		if rng.Float64() < 0.1 {
			buf[i] = adamSpecials[rng.Intn(len(adamSpecials))]
		} else {
			buf[i] = rng.NormFloat64()
		}
		if nonNegative {
			buf[i] = math.Abs(buf[i])
		}
	}
	return buf
}

// zeroGroups builds Adam buffers four lanes at a time, in step with
// adamAVX2's groups, around the moments and gradients that are +0 in
// every lane — the groups it may skip — for each parameter value in
// params: all four lanes +0; one lane's gradient, first or second moment
// non-zero; a subnormal gradient whose moments underflow to +0; and −0
// first moments with −0 gradients, whose new first moment is −0.
func zeroGroups(params []float64) (data, grad, m, v []float64) {
	negZero := math.Copysign(0, -1)
	group := func(p float64, edit func(g, m, v *[4]float64)) {
		var gg, mm, vv [4]float64
		edit(&gg, &mm, &vv)
		data = append(data, p, p, p, p)
		grad, m, v = append(grad, gg[:]...), append(m, mm[:]...), append(v, vv[:]...)
	}
	for _, p := range params {
		group(p, func(g, m, v *[4]float64) {})
		for lane := 0; lane < 4; lane++ {
			group(p, func(g, m, v *[4]float64) { g[lane] = 0.5 })
			group(p, func(g, m, v *[4]float64) { m[lane] = -0.25 })
			group(p, func(g, m, v *[4]float64) { v[lane] = 0.125 })
			group(p, func(g, m, v *[4]float64) { g[lane], m[lane] = negZero, negZero })
		}
		group(p, func(g, m, v *[4]float64) { *g = [4]float64{5e-324, 5e-324, 5e-324, 5e-324} })
		group(p, func(g, m, v *[4]float64) {
			for lane := range g {
				g[lane], m[lane], v[lane] = negZero, negZero, negZero
			}
		})
	}
	return data, grad, m, v
}

// identicalBits compares float slices bit for bit, NaNs included: a
// signalling NaN the Go loop quiets must come out of the vector path
// quiet, with the same payload.
func identicalBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d (group %d lane %d): %x (%g) vs %x (%g)", label, i, i/4, i%4,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestAdamStepMatchesGoLoop: Blocked.AdamStep — adamAVX2 on the multiple
// of four in front, the Go loop on the rest — leaves data, m and v bit for
// bit where Naive's Go loop does, over three consecutive steps, at every
// length from 0 to 67 and at the 18,689 parameters of the benchmark's
// train-head model, on unaligned buffers full of special values. Then on
// zeroGroups, NaN payloads included: groups adamAVX2 may skip beside
// parameters of −0, quiet and signalling NaN, ±Inf and subnormals, groups
// it must not skip, and hyperparameters under which no group may skip
// because the update of a +0 moment is not +0 (lr ≤ 0 or infinite, eps
// = 0, c1 = 0, c2 = 0, a NaN).
func TestAdamStepMatchesGoLoop(t *testing.T) {
	const beta1, beta2, lr, eps = 0.9, 0.999, 0.01, 1e-8
	lengths := []int{18689}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	signalling := math.Float64frombits(0x7ff0000000000001)
	params := []float64{math.Copysign(0, -1), 0, math.NaN(), signalling, math.Inf(1), math.Inf(-1), 5e-324, -2.5e-310, 1.5}
	hypers := []struct{ lr, eps, c1, c2 float64 }{
		{lr, eps, 0.1, 0.001},
		{0, eps, 0.1, 0.001},
		{-lr, eps, 0.1, 0.001},
		{math.Inf(1), eps, 0.1, 0.001},
		{math.NaN(), eps, 0.1, 0.001},
		{lr, 0, 0.1, 0.001},
		{lr, eps, 0, 0.001},
		{lr, eps, 0.1, 0},
		{lr, eps, 0.1, math.Inf(1)},
	}
	eachPath(t, func(t *testing.T) {
		for _, h := range hypers {
			data, grad, m, v := zeroGroups(params)
			wantData := append([]float64(nil), data...)
			wantM := append([]float64(nil), m...)
			wantV := append([]float64(nil), v...)
			for step := 1; step <= 3; step++ {
				Naive.AdamStep(wantData, grad, wantM, wantV, beta1, beta2, h.lr, h.eps, h.c1, h.c2)
				Blocked.AdamStep(data, grad, m, v, beta1, beta2, h.lr, h.eps, h.c1, h.c2)
				label := fmt.Sprintf("zero groups, lr=%g eps=%g c1=%g c2=%g, step %d", h.lr, h.eps, h.c1, h.c2, step)
				identicalBits(t, label+" data", data, wantData)
				identicalBits(t, label+" m", m, wantM)
				identicalBits(t, label+" v", v, wantV)
			}
		}
		rng := rand.New(rand.NewSource(27))
		for _, n := range lengths {
			data, m, v := adamBuffer(rng, n, false), adamBuffer(rng, n, false), adamBuffer(rng, n, true)
			wantData := append([]float64(nil), data...)
			wantM := append([]float64(nil), m...)
			wantV := append([]float64(nil), v...)
			for step := 1; step <= 3; step++ {
				grad := adamBuffer(rng, n, false)
				c1 := 1 - math.Pow(beta1, float64(step))
				c2 := 1 - math.Pow(beta2, float64(step))
				Naive.AdamStep(wantData, grad, wantM, wantV, beta1, beta2, lr, eps, c1, c2)
				Blocked.AdamStep(data, grad, m, v, beta1, beta2, lr, eps, c1, c2)
				label := fmt.Sprintf("n=%d step %d", n, step)
				sameBits(t, label+" data", data, wantData)
				sameBits(t, label+" m", m, wantM)
				sameBits(t, label+" v", v, wantV)
			}
		}
	})
}

// TestAdamStepShortBufferPanics: a moment or gradient shorter than data
// is refused by a Go bounds check before any assembly runs.
func TestAdamStepShortBufferPanics(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		full, short := make([]float64, 8), make([]float64, 4)
		for name, args := range map[string][4][]float64{
			"grad": {full, short, full, full},
			"m":    {full, full, short, full},
			"v":    {full, full, full, short},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("AdamStep with a short %s did not panic", name)
					}
				}()
				Blocked.AdamStep(args[0], args[1], args[2], args[3], 0.9, 0.999, 0.01, 1e-8, 0.1, 0.001)
			}()
		}
	})
}

// TestAddMatchesGoLoop: AddTo, AccumAdd (dst is a) and ColSumAdd — the
// vector add's callers — equal the straight loops bit for bit at every
// length from 0 to 67, on unaligned buffers with special values.
func TestAddMatchesGoLoop(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for n := 0; n <= 67; n++ {
			a := unaligned(randMatrix(rng, n+1, true))
			b := unaligned(randMatrix(rng, n+1, true))
			want := make([]float64, n)
			for i := range want {
				want[i] = a[i] + b[i]
			}
			got := unaligned(make([]float64, n+1))
			AddTo(got, a, b)
			sameBits(t, fmt.Sprintf("AddTo n=%d", n), got, want)
			AccumAdd(a, b)
			sameBits(t, fmt.Sprintf("AccumAdd n=%d", n), a, want)

			const rows = 3
			mat := unaligned(randMatrix(rng, rows*n+1, true))
			sums := unaligned(randMatrix(rng, n+1, false))
			wantSums := append([]float64(nil), sums...)
			for i := 0; i < rows; i++ {
				for j := range wantSums {
					wantSums[j] += mat[i*n+j]
				}
			}
			ColSumAdd(sums, mat, rows, n)
			sameBits(t, fmt.Sprintf("ColSumAdd n=%d", n), sums, wantSums)
		}
	})
}

// TestReLUBits pins the branch-free ReLU bit for bit: a value > 0 passes
// unchanged, and everything else — −0, NaN, −Inf, a negative subnormal —
// becomes +0, in the forward (standalone and fused) and in the gradient,
// which passes g's bits (−0 and NaN included) where the output is > 0.
func TestReLUBits(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	in := []float64{negZero, 0, nan, inf, -inf, 5e-324, -5e-324, 2.5, -2.5}
	fwd := []float64{0, 0, 0, inf, 0, 5e-324, 0, 2.5, 0}
	g := []float64{1, 2, 3, negZero, 5, nan, 7, -8, 9}
	grad := []float64{0, 0, 0, negZero, 0, nan, 0, -8, 0}
	eachPath(t, func(t *testing.T) {
		got := make([]float64, len(in))
		ReLUTo(got, in)
		sameBits(t, "ReLUTo", got, fwd)
		row := append([]float64(nil), in...)
		actInPlace(row, ActReLU, 0)
		sameBits(t, "fused ReLU", row, fwd)
		ActGradTo(got, in, g, ActReLU, 0)
		sameBits(t, "ActGradTo ReLU", got, grad)
	})
}

// TestReLUMatchesGoLoop: ReLUTo — reluAVX2 on the multiple of four in
// front, the Go loop on the rest — gives the Go loop's bits & positive(v)
// bit for bit, NaN payloads included, at every width from 0 to 130, out
// of place and in place, on unaligned buffers of ±0, ±Inf, quiet and
// signalling NaNs with payloads of either sign, subnormals of either
// sign, and ordinary values.
func TestReLUMatchesGoLoop(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000000),
		5e-324, -5e-324, 2.2e-308, -1e-310, math.MaxFloat64, -math.MaxFloat64,
	}
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(48))
		for n := 0; n <= 130; n++ {
			a := unaligned(make([]float64, n+1))
			for i := range a {
				if rng.Float64() < 0.5 {
					a[i] = values[rng.Intn(len(values))]
				} else {
					a[i] = rng.NormFloat64()
				}
			}
			want := make([]float64, n)
			for i, v := range a {
				want[i] = math.Float64frombits(math.Float64bits(v) & positive(v))
			}
			got := unaligned(make([]float64, n+1))
			ReLUTo(got, a)
			identicalBits(t, fmt.Sprintf("ReLUTo n=%d", n), got, want)
			ReLUTo(a, a)
			identicalBits(t, fmt.Sprintf("ReLUTo in place n=%d", n), a, want)
		}
	})
}
