// Package kernels provides the dense float64 math kernels behind the
// autograd tensor operations: cache-blocked, goroutine-parallel GEMM
// (forward and both backward products), a fused dense-layer forward
// (matmul + bias + activation in one pass), the Adam update the
// optimizer runs on every parameter, vectorized elementwise and
// reduction loops, and a sync.Pool buffer arena that removes per-op
// allocations from the training and serving hot loops.
//
// # Determinism contract
//
// Every backend must produce results bit-identical to straight-line
// evaluation: each output element is accumulated in exactly the order
// of the textbook triple loop (ascending reduction index, a single
// accumulator per element). Blocking and unrolling may regroup which
// elements are computed together, but never the addition order within
// one element; parallelism partitions output elements across
// goroutines, never the reduction of a single element. The same rule
// governs SIMD (gemmAddAVX2, the amd64 routine under the blocked
// backend, and the elementwise adamAVX2 and addAVX2; build with -tags
// purego to leave them out): vector lanes hold different output
// elements, never partial sums of one, and each Go operation is one
// correctly rounded instruction in the Go loop's order — multiply and
// add separately, no FMA, whose single rounding is a different float,
// and no reciprocal or reciprocal-square-root estimate in place of a
// division or square root. Consequently results do not depend on
// SetThreads, Hold, GOMAXPROCS, the CPU, or the backend chosen, and the
// distributed bit-identity suites hold unchanged.
// (One caveat: when several NaNs combine, the propagated *payload* is
// chosen by the hardware per instruction operand order, which the
// compiler picks per expression — NaN is deterministic as a class,
// not as a bit pattern. Finite values and infinities are exact.)
//
// Kernels never skip zero operands: IEEE-754 says 0*Inf = NaN, so a
// "harmless" zero fast-path silently masks non-finite values from the
// loss and from the anomaly flight recorder. Non-finite inputs must
// poison the output, exactly as straight-line evaluation would.
package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Act selects the activation fused into DenseForward.
type Act int

// Fused activation kinds. ActLeakyReLU uses the slope passed alongside.
const (
	ActIdentity Act = iota
	ActReLU
	ActSigmoid
	ActTanh
	ActLeakyReLU
)

// Backend implements the dense float64 kernels. All matrices are
// row-major. Every product accumulates into dst (dst += ...), which is
// both the overwrite case (pass a zeroed dst — the arena's Get returns
// zeroed buffers) and the gradient-accumulation case. Accumulating
// into zero rather than overwriting keeps even the sign of zero
// bit-identical to straight-line evaluation (0 + -0 = +0).
type Backend interface {
	// Name identifies the backend ("blocked", "naive").
	Name() string
	// GemmAdd computes dst += a·b for a (m×k) and b (k×n).
	GemmAdd(dst, a, b []float64, m, k, n int)
	// GemmABtAdd computes dst += a·bᵀ for a (m×n) and b (k×n),
	// producing m×k. This is the dA += dOut·Bᵀ backward product.
	GemmABtAdd(dst, a, b []float64, m, n, k int)
	// GemmAtBAdd computes dst += aᵀ·g for a (m×k) and g (m×n),
	// producing k×n. This is the dB += Aᵀ·dOut backward product.
	GemmAtBAdd(dst, a, g []float64, m, k, n int)
	// DenseForward computes dst += x·w, then dst = act(dst + bias),
	// for x (m×k), w (k×n), and bias (len n, nil for no bias) in one
	// fused pass over a zeroed dst. slope is the LeakyReLU slope,
	// ignored by other activations.
	DenseForward(dst, x, w, bias []float64, m, k, n int, act Act, slope float64)
	// AdamStep applies one Adam update to data: for each i,
	// m = β1·m + (1−β1)·g, v = β2·v + ((1−β2)·g)·g and
	// data −= (lr·(m/c1)) / (√(v/c2) + ε), where c1 = 1−β1^t and
	// c2 = 1−β2^t are the step's bias corrections. grad, m and v must
	// hold at least len(data) elements; m and v are updated in place.
	AdamStep(data, grad, m, v []float64, beta1, beta2, lr, eps, c1, c2 float64)
}

// Blocked is the default backend: row-parallel kernels on an AVX2
// routine where the CPU has it, k-panel blocked, 4x-unrolled Go loops
// elsewhere. Naive is the straight-line reference retained for
// differential testing.
var (
	Blocked Backend = blocked{}
	Naive   Backend = naive{}
)

// active is the backend used by the autograd ops.
var active atomic.Pointer[Backend]

// threads caps kernel parallelism; 0 means GOMAXPROCS.
var threads atomic.Int64

func init() {
	active.Store(&Blocked)
}

// Default returns the backend the autograd ops dispatch to.
func Default() Backend { return *active.Load() }

// Use installs b as the dispatch backend and returns the previous one.
// Results are bit-identical across backends; only speed changes.
func Use(b Backend) Backend {
	prev := *active.Load()
	active.Store(&b)
	return prev
}

// SetThreads caps the goroutines a single kernel may fan out to.
// n <= 0 restores the default (GOMAXPROCS at call time). Thread count
// never changes results, only wall-clock.
func SetThreads(n int) {
	if n < 0 {
		n = 0
	}
	threads.Store(int64(n))
}

// Threads reports the current parallelism cap.
func Threads() int {
	if n := int(threads.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// held counts the coarse workers among which callers of Hold have split
// the thread budget.
var held atomic.Int32

// Hold splits the thread budget among the workers goroutines over which
// its caller spreads coarser work — whole train passes. Until the
// returned release runs, a kernel fans out to Threads()/workers
// goroutines (see Fanout), and runs on the goroutine that called it when
// that is one: the two levels of parallelism share the cap instead of
// multiplying. Results cannot change: they never depend on how a kernel's
// rows are partitioned. Holds may nest and overlap, their workers add up,
// and Hold(1) changes nothing. release must be called exactly once.
func Hold(workers int) (release func()) {
	held.Add(int32(workers))
	return func() { held.Add(-int32(workers)) }
}

// Fanout reports how many goroutines a kernel may spread over right now:
// Threads(), divided by the workers that hold the budget, at least one.
func Fanout() int {
	n := Threads()
	if h := int(held.Load()); h > 1 {
		n = max(n/h, 1)
	}
	return n
}

// parallelGrain is the smallest share of a product, in multiply-adds,
// that a goroutine is spawned for; a product under two of them runs on
// the calling goroutine. It is sized against gemmAddAVX2, the fastest
// kernel a share can run on, on the 2-core box the benchmark uses, from
// per-call timings of GemmAdd at SetThreads(1) and (2) (BenchmarkGemm has
// the means). The routine does ~12 multiply-adds per ns on one core
// (256×96×64 in 123 µs). Handing half a product to a second goroutine —
// spawn, a second P to steal it, WaitGroup join — costs ~20 µs over the
// ideal half while that P's thread is still spinning from the previous
// product (256 rows: 84 µs against 61; the Go loops' 497 → 267 and
// 121 → 82 µs tell the same 20) and ~45 µs once it has parked and must be
// woken (300 µs of serial work between products: 256 rows 107 µs, 512
// rows 175 against 125, 1024 rows 302 against 256). A share of 1<<19 is
// ~43 µs of the routine, so the smallest product that splits, ~1 M
// multiply-adds, breaks even in the parked case (43 + 45 against 86) and
// gains a quarter in the spinning one, and everything larger gains in
// both: the 256-row first layer, 786 k per share, reads 123 → 84–107 µs.
// The 64-row training products (393 k) stay on one goroutine, 31–33 µs,
// where at the old grain of 16,384 two goroutines took 33–47 and
// train-head's epoch 171 ms against 159; under 30 µs is out of reach
// there, half the product plus the cheaper hand-off being 36. On the Go
// loops, four times slower, the same count only makes splitting rarer
// than it could be. A constant, not a knob: results never depend on it.
const parallelGrain = 1 << 19

// parallelRows partitions [0, rows) into contiguous chunks and runs
// fn(lo, hi) for each, fanning out to at most Fanout() goroutines. work
// is the multiply-add count per row. Each output element lives in exactly
// one chunk, so the partition never affects results.
func parallelRows(rows, work int, fn func(lo, hi int)) {
	nw := Fanout()
	if nw > rows {
		nw = rows
	}
	if nw <= 1 || rows*work < 2*parallelGrain {
		fn(0, rows)
		return
	}
	if maxChunks := rows * work / parallelGrain; nw > maxChunks {
		nw = maxChunks
	}
	chunk := (rows + nw - 1) / nw
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
