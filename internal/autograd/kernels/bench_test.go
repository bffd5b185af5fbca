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
// the assembly routine with the small-product cut-off bypassed and on
// the Go loops, at one and two kernel threads. GFLOP/s counts a
// multiply-add as two operations.
func BenchmarkGemm(b *testing.B) {
	defer SetThreads(0)
	defer func(v int) { asmFrom = v }(asmFrom)
	rng := rand.New(rand.NewSource(1))
	paths := []struct {
		name string
		from int
	}{{"asm", 1}, {"go", math.MaxInt}}
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
					if path.from == 1 && !hasAVX2 {
						continue
					}
					for _, threads := range []int{1, 2} {
						b.Run(fmt.Sprintf("%s/%dx%dx%d/%s/threads=%d", p.name, rows, in, out, path.name, threads), func(b *testing.B) {
							asmFrom = path.from
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
// parameters: what optim.Adam.Step spends per mini-batch.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	elementwisePaths(b, func(b *testing.B, n int) {
		data, grad := randMatrix(rng, n, false), randMatrix(rng, n, false)
		m, v := make([]float64, n), make([]float64, n)
		for i := 0; i < b.N; i++ {
			Blocked.AdamStep(data, grad, m, v, 0.9, 0.999, 1e-3, 1e-8, 0.1, 0.001)
		}
	})
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
