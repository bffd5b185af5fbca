package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BenchmarkGemm times the three products of the blocked backend at the
// shapes the benchmark's MLP runs them — batches of 1 (serve-point), 24
// (a tail domain), 64 and 256 rows (train batch, serve-rank) through the
// 96→64, 64→32 and 32→1 dense layers: the forward product, the backward
// product into the layer's input (ABt) and into its weights (AtB) — on
// the assembly routine with the small-product cut-off bypassed, with its
// eight-lane ZMM tiles (lanes=8) and with the four-lane YMM tiles alone
// (lanes=4), and on the Go loops, at one and two kernel threads. GFLOP/s
// counts a multiply-add as two operations.
func BenchmarkGemm(b *testing.B) {
	defer SetThreads(0)
	defer func(from int, zmm bool) { asmFrom, zmmTiles = from, zmm }(asmFrom, zmmTiles)
	rng := rand.New(rand.NewSource(1))
	paths := []struct {
		name string
		from int
		zmm  bool
		has  bool
	}{{"asm/lanes=8", 1, true, hasAVX512}, {"asm/lanes=4", 1, false, hasAVX2}, {"go", math.MaxInt, false, true}}
	for _, layer := range [][2]int{{96, 64}, {64, 32}, {32, 1}} {
		in, out := layer[0], layer[1]
		w := randMatrix(rng, in*out, false)
		for _, rows := range []int{1, 24, 64, 256} {
			x, g := randMatrix(rng, rows*in, false), randMatrix(rng, rows*out, false)
			products := []struct {
				name string
				dst  []float64
				run  func(dst []float64)
			}{
				{"Add", make([]float64, rows*out), func(dst []float64) { Blocked.GemmAdd(dst, x, w, rows, in, out) }},
				{"ABt", make([]float64, rows*in), func(dst []float64) { Blocked.GemmABtAdd(dst, g, w, rows, out, in) }},
				{"AtB", make([]float64, in*out), func(dst []float64) { Blocked.GemmAtBAdd(dst, x, g, rows, in, out) }},
			}
			for _, p := range products {
				for _, path := range paths {
					if !path.has {
						continue
					}
					for _, threads := range []int{1, 2} {
						b.Run(fmt.Sprintf("%s/%dx%dx%d/%s/threads=%d", p.name, rows, in, out, path.name, threads), func(b *testing.B) {
							asmFrom, zmmTiles = path.from, path.zmm
							SetThreads(threads)
							for i := 0; i < b.N; i++ {
								p.run(p.dst)
							}
							flop := 2 * float64(rows*in*out) * float64(b.N)
							b.ReportMetric(flop/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
						})
					}
				}
			}
		}
	}
}

// elementwisePaths runs b's sub-benchmarks on the assembly routines and
// on the Go loops, at the parameter counts of the benchmark's train-head
// model (18,689) and of its 200-domain model (105,000).
func elementwisePaths(b *testing.B, run func(b *testing.B, n int)) {
	defer func(v bool) { vecAVX2 = v }(vecAVX2)
	for _, n := range []int{18689, 105000} {
		for _, path := range []struct {
			name string
			asm  bool
		}{{"asm", true}, {"go", false}} {
			if path.asm && !hasAVX2 {
				continue
			}
			b.Run(fmt.Sprintf("%d/%s", n, path.name), func(b *testing.B) {
				vecAVX2 = path.asm
				run(b, n)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
			})
		}
	}
}

// BenchmarkAdamStep times Blocked.AdamStep, one Adam update of n
// parameters: what optim.Adam.Step spends per mini-batch. A share of the
// elements, in rows of eight as in an embedding table (zero=0%, 22%, 50%),
// has m = v = g = +0, whose update is exactly +0: about the share of the
// benchmark's train-head Adam element-updates that are so (22.9 % at
// seed 12), the table rows no batch reached since the optimizer's reset.
func BenchmarkAdamStep(b *testing.B) {
	const row = 8
	rng := rand.New(rand.NewSource(1))
	for _, share := range []float64{0, 0.22, 0.5} {
		b.Run(fmt.Sprintf("zero=%.0f%%", 100*share), func(b *testing.B) {
			elementwisePaths(b, func(b *testing.B, n int) {
				data, grad := randMatrix(rng, n, false), randMatrix(rng, n, false)
				m, v := make([]float64, n), make([]float64, n)
				for lo := 0; lo < n; lo += row {
					if rng.Float64() < share {
						clear(grad[lo:min(lo+row, n)])
					}
				}
				for i := 0; i < b.N; i++ {
					Blocked.AdamStep(data, grad, m, v, 0.9, 0.999, 1e-3, 1e-8, 0.1, 0.001)
				}
			})
		})
	}
}

// BenchmarkAdd times AccumAdd of n elements, the vector add behind
// gradient accumulation, AddTo and the column sums of a bias gradient.
func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	elementwisePaths(b, func(b *testing.B, n int) {
		dst, g := randMatrix(rng, n, false), randMatrix(rng, n, false)
		for i := 0; i < b.N; i++ {
			AccumAdd(dst, g)
		}
	})
}
