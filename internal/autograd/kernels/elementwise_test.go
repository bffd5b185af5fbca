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

// TestAdamStepMatchesGoLoop: Blocked.AdamStep — adamAVX2 on the multiple
// of four in front, the Go loop on the rest — leaves data, m and v bit for
// bit where Naive's Go loop does, over three consecutive steps, at every
// length from 0 to 67 and at the 18,689 parameters of the benchmark's
// train-head model, on unaligned buffers full of special values.
func TestAdamStepMatchesGoLoop(t *testing.T) {
	const beta1, beta2, lr, eps = 0.9, 0.999, 0.01, 1e-8
	lengths := []int{18689}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	eachPath(t, func(t *testing.T) {
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
