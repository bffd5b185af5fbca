package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// specials are the values whose handling separates a correct kernel
// from a fast-looking one: signed zeros breed sign flips, and
// Inf/NaN must poison products instead of being skipped.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-308, -1e308}

func randMatrix(rng *rand.Rand, n int, withSpecials bool) []float64 {
	m := make([]float64, n)
	for i := range m {
		switch {
		case withSpecials && rng.Float64() < 0.08:
			m[i] = specials[rng.Intn(len(specials))]
		case rng.Float64() < 0.15:
			m[i] = 0 // post-ReLU activations are ~half zeros; keep the zero path hot
		default:
			m[i] = rng.NormFloat64()
		}
	}
	return m
}

// sameBits compares float slices bit for bit, except that NaNs compare
// as a class: when several NaN sources meet, the payload the hardware
// propagates depends on instruction operand order, which the compiler
// is free to pick per expression. Finite values and infinities — the
// determinism guarantee that matters for training — must match exactly.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d: %x (%g) vs %x (%g)", label,
				i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// eachPath runs f on the assembly routines with the small-product cut-off
// bypassed, so every non-empty product reaches gemmAddAVX2: "asm" at the
// widest lanes the CPU has — the eight-lane ZMM tiles where it has
// AVX-512 — and "asm4" with the four-lane YMM tiles forced on an AVX-512
// CPU, so that path stays tested there (elsewhere "asm" is that path).
// Then "go", on the Go loops alone. An arm is skipped where it cannot
// run.
func eachPath(t *testing.T, f func(t *testing.T)) {
	defer func(from int, vec, zmm bool) { asmFrom, vecAVX2, zmmTiles = from, vec, zmm }(asmFrom, vecAVX2, zmmTiles)
	t.Run("asm", func(t *testing.T) {
		if !hasAVX2 {
			t.Skip("no AVX2 on this CPU, or a build without the assembly (purego, not amd64)")
		}
		asmFrom, vecAVX2, zmmTiles = 1, true, hasAVX512
		f(t)
	})
	t.Run("asm4", func(t *testing.T) {
		if !hasAVX512 {
			t.Skip("no AVX-512 on this CPU, or a build without the assembly: the asm arm ran four lanes")
		}
		asmFrom, vecAVX2, zmmTiles = 1, true, false
		f(t)
	})
	t.Run("go", func(t *testing.T) {
		asmFrom, vecAVX2, zmmTiles = math.MaxInt, false, false
		f(t)
	})
}

// unaligned returns m without its first element: a slice that starts 8
// bytes into its allocation, so 32-byte vector loads and stores of it
// are misaligned.
func unaligned(m []float64) []float64 { return m[1:] }

// matchNaive compares the blocked backend with straight-line evaluation,
// bit for bit, at threads 1, 2, 3 and 8: the three GEMM products and the
// fused dense forward, each with rows output rows, cols output columns
// and a reduction of length red, accumulating onto a non-zero dst.
func matchNaive(t *testing.T, rng *rand.Rand, rows, red, cols int, withSpecials bool) {
	t.Helper()
	mat := func(n int) []float64 { return unaligned(randMatrix(rng, n+1, withSpecials)) }
	left, right := mat(rows*red), mat(red*cols) // GemmAdd, DenseForward: rows×red · red×cols
	gradT, wT := mat(rows*red), mat(cols*red)   // GemmABtAdd: rows×red · (cols×red)ᵀ
	aT, gT := mat(red*rows), mat(red*cols)      // GemmAtBAdd: (red×rows)ᵀ · red×cols
	bias := mat(cols)
	init := unaligned(randMatrix(rng, rows*cols+1, false))
	act := Act(rng.Intn(5))

	products := []struct {
		name string
		run  func(be Backend, dst []float64)
	}{
		{"GemmAdd", func(be Backend, dst []float64) { be.GemmAdd(dst, left, right, rows, red, cols) }},
		{"GemmABtAdd", func(be Backend, dst []float64) { be.GemmABtAdd(dst, gradT, wT, rows, red, cols) }},
		{"GemmAtBAdd", func(be Backend, dst []float64) { be.GemmAtBAdd(dst, aT, gT, red, rows, cols) }},
		{"DenseForward", func(be Backend, dst []float64) {
			be.DenseForward(dst, left, right, bias, rows, red, cols, act, 0.01)
		}},
	}
	fresh := func() []float64 {
		dst := unaligned(make([]float64, rows*cols+1))
		copy(dst, init)
		return dst
	}
	for _, p := range products {
		want := fresh()
		p.run(Naive, want)
		for _, threads := range []int{1, 2, 3, 8} {
			SetThreads(threads)
			got := fresh()
			p.run(Blocked, got)
			sameBits(t, fmt.Sprintf("%s %dx%dx%d at %d threads", p.name, rows, red, cols, threads), got, want)
		}
	}
}

// TestBlockedMatchesNaive is the differential property test: the blocked
// parallel backend must be bit-identical to straight-line evaluation for
// all three GEMM products and the fused dense forward, at every thread
// count, on the assembly routine and on the Go loops — on random shapes
// and values, including zeros, Inf and NaN, and then on every tile
// boundary of the routine: every output width from 1 to 130, which
// crosses each boundary of its 64-, 32- and 8-column ZMM tiles and its
// 32-, 16- and 4-column YMM tiles and leaves every tail of each,
// reductions past the assembly's mc and the Go loops' kc panels, one row
// and many, a product large enough to be split among goroutines, and
// empty matrices, which must return quietly.
func TestBlockedMatchesNaive(t *testing.T) {
	defer SetThreads(0)
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 60; trial++ {
			matchNaive(t, rng, 1+rng.Intn(50), 1+rng.Intn(50), 1+rng.Intn(50), trial%3 == 0)
		}
		for cols := 1; cols <= 130; cols++ {
			for _, red := range []int{1, 5, 40} {
				for _, rows := range []int{1, 7} {
					matchNaive(t, rng, rows, red, cols, true)
				}
			}
		}
		for _, cols := range []int{1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100} {
			for _, red := range []int{1, 5, 129, 200} {
				for _, rows := range []int{1, 70} {
					matchNaive(t, rng, rows, red, cols, red < kc)
				}
			}
		}
		// Eight shares of the parallel grain, so the thread counts above
		// cut the rows two, three and eight ways.
		matchNaive(t, rng, 131, 8*parallelGrain/(131*129)+1, 129, false)
		for _, shape := range [][3]int{{0, 5, 5}, {5, 0, 5}, {5, 5, 0}, {0, 0, 0}} {
			matchNaive(t, rng, shape[0], shape[1], shape[2], true)
		}
		matchNaiveSharedPrefix(t, rng)
	})
}

// flipBits returns v with the bits of mask flipped: a value that differs
// from v bitwise whatever v is, Inf and NaN included.
func flipBits(v float64, mask uint64) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ mask)
}

// matchNaiveSharedPrefix is TestBlockedMatchesNaive's arm for the fused
// dense forward on inputs whose leading columns are equal in every row —
// a ranking request's user fields — which Blocked accumulates once on row
// 0 and copies. It checks both that the prefix sharedPrefix finds is the
// one the input was built with and that the result is the naive one, bit
// for bit, at threads 1, 2, 3 and 8: at m = 1, 2 and 256 rows, for a
// prefix of 0, 1, k−1 and k columns, for a prefix that only the last row
// breaks at its last column, for −0 against +0 and NaNs of different
// payloads inside it (which break it), for equal NaNs (which do not), and
// for dst rows that differ (which leave no prefix to share).
func matchNaiveSharedPrefix(t *testing.T, rng *rand.Rand) {
	t.Helper()
	negZero := math.Copysign(0, -1)
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	const k, n = 40, 69
	for _, m := range []int{1, 2, 256} {
		for _, kp := range []int{0, 1, k - 1, k} {
			cases := []struct {
				name  string
				edit  func(x, dst []float64) // after the prefix is copied
				share int                    // the prefix sharedPrefix must find
			}{
				{"plain", func(x, dst []float64) {}, kp},
				{"last row breaks the last column", func(x, dst []float64) {
					if kp > 0 {
						x[(m-1)*k+kp-1] = flipBits(x[kp-1], 1)
					}
				}, kp - 1},
				{"-0 against +0", func(x, dst []float64) {
					if kp > 0 {
						x[kp/2] = 0
						for i := 1; i < m; i++ {
							x[i*k+kp/2] = 0
						}
						x[(m-1)*k+kp/2] = negZero
					}
				}, kp / 2},
				{"NaN payloads", func(x, dst []float64) {
					if kp > 0 {
						for i := 0; i < m; i++ {
							x[i*k+kp/2] = nan1
						}
						x[(m-1)*k+kp/2] = nan2
					}
				}, kp / 2},
				{"one NaN", func(x, dst []float64) {
					for i := 0; i < m && kp > 0; i++ {
						x[i*k+kp-1] = nan1
					}
				}, kp},
				{"dst rows differ", func(x, dst []float64) { dst[(m-1)*n] = flipBits(dst[(m-1)*n], 1) }, 0},
			}
			for _, c := range cases {
				x := unaligned(randMatrix(rng, m*k+1, true))
				for i := 1; i < m; i++ {
					copy(x[i*k:i*k+kp], x[:kp])
				}
				// Columns past the prefix differ between row 0 and the
				// others, so the prefix ends where it was built to.
				if kp < k {
					for i := 1; i < m; i++ {
						x[i*k+kp] = flipBits(x[kp], uint64(i))
					}
				}
				w := unaligned(randMatrix(rng, k*n+1, true))
				bias := unaligned(randMatrix(rng, n+1, false))
				dst0 := unaligned(make([]float64, m*n+1))
				row := randMatrix(rng, n, false)
				for i := 0; i < m; i++ {
					copy(dst0[i*n:(i+1)*n], row)
				}
				c.edit(x, dst0)
				want := c.share
				if m == 1 || want < 0 {
					want = 0 // one row has nothing to share
				}
				label := fmt.Sprintf("shared prefix %s: m=%d kp=%d", c.name, m, kp)
				if got := sharedPrefix(dst0, x, m, k, n); got != want {
					t.Fatalf("%s: sharedPrefix = %d, want %d", label, got, want)
				}
				act := Act(rng.Intn(5))
				fresh := func() []float64 {
					dst := unaligned(make([]float64, m*n+1))
					copy(dst, dst0)
					return dst
				}
				ref := fresh()
				Naive.DenseForward(ref, x, w, bias, m, k, n, act, 0.01)
				for _, threads := range []int{1, 2, 3, 8} {
					SetThreads(threads)
					got := fresh()
					Blocked.DenseForward(got, x, w, bias, m, k, n, act, 0.01)
					sameBits(t, fmt.Sprintf("%s at %d threads", label, threads), got, ref)
				}
			}
		}
	}
}

// TestGemmAddAccumulates pins the += contract: products accumulate on
// top of existing dst contents.
func TestGemmAddAccumulates(t *testing.T) {
	dst := []float64{10, 20, 30, 40}
	Blocked.GemmAdd(dst, []float64{1, 2, 3, 4}, []float64{1, 0, 0, 1}, 2, 2, 2)
	want := []float64{11, 22, 33, 44}
	sameBits(t, "accumulate", dst, want)
}

// TestNoZeroSkip pins the bugfix this package was introduced for: a
// zero in a must not skip the multiply against a non-finite row of b,
// because 0×Inf = NaN. The pre-kernel MatMul had an `av == 0` fast
// path that silently masked poisoned parameters from the loss. 69
// output columns put the 0·Inf operand in a lane of each kind the
// assembly routine has: with eight lanes, in its 64-column ZMM tile's
// first register (column 1) and in a later one (column 9), in the YMM
// tile of 4 (column 66) and the scalar tail (column 68); with four
// lanes, in the first and the second 32-column tile, and the same tails.
func TestNoZeroSkip(t *testing.T) {
	const n = 69
	inf := math.Inf(1)
	poisoned := make([]bool, n)
	b0, b1 := make([]float64, n), make([]float64, n)
	for j := range b0 {
		b0[j], b1[j] = 5, 5
	}
	for _, j := range []int{1, 9, 40, 66, 68} {
		poisoned[j], b0[j] = true, inf
	}
	check := func(t *testing.T, be Backend) {
		t.Helper()
		dst := make([]float64, n)
		be.GemmAdd(dst, []float64{0, 1}, append(append([]float64(nil), b0...), b1...), 1, 2, n)
		dB := make([]float64, 2*n)
		be.GemmAtBAdd(dB, []float64{0, 1}, b0, 1, 2, n)
		for j, poisoned := range poisoned {
			if math.IsNaN(dst[j]) != poisoned {
				t.Fatalf("%s: column %d of 0*b0 + 1*b1 = %g, want NaN only where b0 is Inf (zero-skip is back?)", be.Name(), j, dst[j])
			}
			if math.IsNaN(dB[j]) != poisoned {
				t.Fatalf("%s: dB[0][%d] = 0*g = %g, want NaN only where g is Inf", be.Name(), j, dB[j])
			}
		}
	}
	check(t, Naive)
	eachPath(t, func(t *testing.T) { check(t, Blocked) })
}

// TestParallelGemmConcurrent hammers the parallel kernels from many
// goroutines at once (run under -race in CI): workers share the inputs
// read-only and own their outputs, so the only sharing inside a kernel
// is the row partition.
func TestParallelGemmConcurrent(t *testing.T) {
	SetThreads(8)
	defer SetThreads(0)
	rng := rand.New(rand.NewSource(7))
	const k, n = 64, 80
	const m = 4*parallelGrain/(k*n) + 1 // past the grain: rows split four ways
	a := randMatrix(rng, m*k, false)
	b := randMatrix(rng, k*n, false)
	want := make([]float64, m*n)
	Naive.GemmAdd(want, a, b, m, k, n)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				got := make([]float64, m*n)
				Blocked.GemmAdd(got, a, b, m, k, n)
				sameBits(t, "concurrent GemmAdd", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestPoolGetZeroedAndRecycled(t *testing.T) {
	buf := Get(100)
	if len(buf) != 100 {
		t.Fatalf("Get(100) len %d", len(buf))
	}
	for i := range buf {
		buf[i] = float64(i + 1)
	}
	Put(buf)
	again := Get(100)
	for i, v := range again {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %g", i, v)
		}
	}
	Put(again)
	// Non-pool-shaped slices must be silently dropped, never pooled.
	Put(make([]float64, 100)) // cap 100 is not a size class
	if got := Get(0); got != nil {
		t.Fatalf("Get(0) = %v, want nil", got)
	}
}

func TestSumAndDotMatchStraightLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(100)
		a := randMatrix(rng, n, trial%2 == 0)
		b := randMatrix(rng, n, trial%2 == 0)
		var ws, wd float64
		for i := 0; i < n; i++ {
			ws += a[i]
			wd += a[i] * b[i]
		}
		sameBits(t, "Sum", []float64{Sum(a)}, []float64{ws})
		sameBits(t, "Dot", []float64{Dot(a, b)}, []float64{wd})
	}
}

// TestHoldSplitsTheThreadBudget counts the chunks a kernel's rows are
// cut into: a GEMM past the parallel grain gets Threads() of them, while
// holds are outstanding Threads() divided by their workers (one chunk, on
// the calling goroutine, once that reaches one), and Threads() again once
// the last hold is released — with the same bits throughout.
func TestHoldSplitsTheThreadBudget(t *testing.T) {
	defer SetThreads(0)
	SetThreads(4)
	const m, n = 64, 64
	const k = 4 * parallelGrain / (m * n) // four shares of the parallel grain
	chunks := func() int {
		var c atomic.Int32
		parallelRows(m, k*n, func(lo, hi int) { c.Add(1) })
		return int(c.Load())
	}
	rng := rand.New(rand.NewSource(7))
	a, b := randMatrix(rng, m*k, false), randMatrix(rng, k*n, false)
	gemm := func() []float64 {
		dst := make([]float64, m*n)
		Blocked.GemmAdd(dst, a, b, m, k, n)
		return dst
	}
	want := gemm()
	check := func(when string, fanout int) {
		t.Helper()
		if got := Fanout(); got != fanout {
			t.Fatalf("%s: Fanout() = %d, want %d", when, got, fanout)
		}
		if got := chunks(); got != fanout {
			t.Fatalf("%s: a kernel's rows were cut into %d chunks, want %d", when, got, fanout)
		}
		sameBits(t, "GemmAdd "+when, gemm(), want)
	}

	check("before any hold", 4)
	one := Hold(1)
	check("under Hold(1)", 4)
	two := Hold(1)
	check("under two workers", 2)
	three := Hold(3)
	check("under five workers on four threads", 1)
	two()
	check("under four workers", 1)
	three()
	one()
	check("after the last release", 4)
}
