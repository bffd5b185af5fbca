package kernels

import (
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

// TestBlockedMatchesNaive is the differential property test: on random
// shapes and values — including zeros, Inf, and NaN — the blocked
// parallel backend must be bit-identical to straight-line evaluation
// for all three GEMM products and the fused dense forward, at every
// thread count.
func TestBlockedMatchesNaive(t *testing.T) {
	defer SetThreads(0)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(50)
		k := 1 + rng.Intn(50)
		n := 1 + rng.Intn(50)
		withSpecials := trial%3 == 0
		a := randMatrix(rng, m*k, withSpecials)
		b := randMatrix(rng, k*n, withSpecials)
		g := randMatrix(rng, m*n, withSpecials)
		bias := randMatrix(rng, n, withSpecials)
		act := Act(rng.Intn(5))

		wantF := make([]float64, m*n)
		Naive.GemmAdd(wantF, a, b, m, k, n)
		wantA := make([]float64, m*k)
		Naive.GemmABtAdd(wantA, g, b, m, n, k)
		wantB := make([]float64, k*n)
		Naive.GemmAtBAdd(wantB, a, g, m, k, n)
		wantD := make([]float64, m*n)
		Naive.DenseForward(wantD, a, b, bias, m, k, n, act, 0.01)

		for _, threads := range []int{1, 2, 3, 8} {
			SetThreads(threads)
			gotF := make([]float64, m*n)
			Blocked.GemmAdd(gotF, a, b, m, k, n)
			sameBits(t, "GemmAdd", gotF, wantF)
			gotA := make([]float64, m*k)
			Blocked.GemmABtAdd(gotA, g, b, m, n, k)
			sameBits(t, "GemmABtAdd", gotA, wantA)
			gotB := make([]float64, k*n)
			Blocked.GemmAtBAdd(gotB, a, g, m, k, n)
			sameBits(t, "GemmAtBAdd", gotB, wantB)
			gotD := make([]float64, m*n)
			Blocked.DenseForward(gotD, a, b, bias, m, k, n, act, 0.01)
			sameBits(t, "DenseForward", gotD, wantD)
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
// path that silently masked poisoned parameters from the loss.
func TestNoZeroSkip(t *testing.T) {
	for _, be := range []Backend{Blocked, Naive} {
		dst := make([]float64, 1)
		be.GemmAdd(dst, []float64{0, 1}, []float64{math.Inf(1), 5}, 1, 2, 1)
		if !math.IsNaN(dst[0]) {
			t.Fatalf("%s: 0*Inf + 1*5 = %g, want NaN (zero-skip is back?)", be.Name(), dst[0])
		}
		dB := make([]float64, 2)
		be.GemmAtBAdd(dB, []float64{0, 1}, []float64{math.Inf(1)}, 1, 2, 1)
		if !math.IsNaN(dB[0]) {
			t.Fatalf("%s: dB = 0*Inf = %g, want NaN", be.Name(), dB[0])
		}
	}
}

// TestParallelGemmConcurrent hammers the parallel kernels from many
// goroutines at once (run under -race in CI): workers share the inputs
// read-only and own their outputs, so the only sharing inside a kernel
// is the row partition.
func TestParallelGemmConcurrent(t *testing.T) {
	SetThreads(8)
	defer SetThreads(0)
	rng := rand.New(rand.NewSource(7))
	const m, k, n = 96, 64, 80
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
	const m, k, n = 64, 32, 64
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
