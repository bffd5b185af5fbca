package kernels

import "math"

// blocked is the default backend: the output rows are partitioned across
// goroutines, and each share of a product runs on gemmAddAVX2 where the
// build and the CPU have it (four output columns per instruction) and
// otherwise on the Go loops below, whose k (reduction) loop is split into
// panels of kc rows of b so the panel stays cache-resident while the a
// rows stream past, unrolled 4x to cut loop overhead. Per output element
// the reduction still runs ascending through a single accumulator on
// either path, so results are bit-identical to the naive backend at any
// thread count. Its Adam step runs on adamAVX2 the same way: four
// elements per instruction, each lane the Go loop's operations in order.
type blocked struct{}

// kc is the k-panel height: one panel of b is kc×n float64s, sized to
// sit in L1/L2 for the layer widths used by the CTR models here.
const kc = 128

// smallProduct is the multiply-add count under which a product stays on
// the Go loops although the CPU has AVX2. Measured, not derived: with
// every product on the assembly routine, serve-point — whose forwards are
// one-row products of 6,144 (1×96×64) and 2,048 (1×64×32) multiply-adds,
// one request every ~70 µs per core — read op_ms +1 % in 4 of 4
// alternating pairs on the 2-core benchmark box (0.0671–0.0678 →
// 0.0681–0.0685 ms; the prototype of this change saw +2.7 % in 7 of 7),
// although in a tight loop the routine runs those products three times
// faster than the Go loop (BenchmarkGemm). With the cut-off serve-point
// is level with the Go loops alone, and nothing else moves: the next
// smallest products the benchmark runs are serve-live's 16-row and the
// tail domains' 24-row batches, 98 k and 147 k multiply-adds in the first
// layer, 33 k and 49 k in the second. The cause was not separated: a core
// that has run no 256-bit arithmetic for a while executes it slowly at
// first, which a 0.5 µs product never amortises; or the call and its
// VZEROUPPER.
const smallProduct = 16384

// mc is the reduction panel of the transposed product on the assembly
// routine: 32 rows of a and g (24 KB + 16 KB at 96 and 64 columns) stay
// in L1 while every output row reads them, where a's whole columns, one
// cache line per element, do not: 256×96×64 ran 170 µs unpanelled, 128 µs
// so.
const mc = 32

// asmFrom is the multiply-add count from which a share of a product runs
// on gemmAddAVX2: smallProduct where hasAVX2, never elsewhere. It is at
// least 1, so the routine is never handed an empty matrix. Only tests
// write it, to run both paths on one machine.
var asmFrom = func() int {
	if hasAVX2 {
		return smallProduct
	}
	return math.MaxInt
}()

func (blocked) Name() string { return "blocked" }

func (blocked) GemmAdd(dst, a, b []float64, m, k, n int) {
	checkGemm(dst, a, b, m, k, n)
	parallelRows(m, k*n, func(lo, hi int) {
		gemmAddRange(dst, a, b, lo, hi, k, n)
	})
}

// gemmAddRange accumulates dst rows [lo,hi) of dst += a·b. The p loop
// is panel-blocked and 4x unrolled; every dst element receives its k
// contributions in ascending p order through a single accumulator.
func gemmAddRange(dst, a, b []float64, lo, hi, k, n int) {
	if (hi-lo)*k*n >= asmFrom {
		gemmAddAVX2(&dst[lo*n], &a[lo*k], &b[0], hi-lo, k, n, k, 1)
		return
	}
	for kb := 0; kb < k; kb += kc {
		ke := kb + kc
		if ke > k {
			ke = k
		}
		for i := lo; i < hi; i++ {
			ar := a[i*k : (i+1)*k]
			or := dst[i*n : (i+1)*n]
			p := kb
			for ; p+4 <= ke; p += 4 {
				a0, a1, a2, a3 := ar[p], ar[p+1], ar[p+2], ar[p+3]
				b0 := b[p*n : (p+1)*n]
				b1 := b[(p+1)*n : (p+2)*n]
				b2 := b[(p+2)*n : (p+3)*n]
				b3 := b[(p+3)*n : (p+4)*n]
				for j := range or {
					s := or[j]
					s += a0 * b0[j]
					s += a1 * b1[j]
					s += a2 * b2[j]
					s += a3 * b3[j]
					or[j] = s
				}
			}
			for ; p < ke; p++ {
				av := ar[p]
				br := b[p*n : (p+1)*n]
				for j := range or {
					or[j] += av * br[j]
				}
			}
		}
	}
}

func (blocked) GemmABtAdd(dst, a, b []float64, m, n, k int) {
	checkGemm(dst, a, b, m, n, k) // dst m×k, a m×n, b k×n
	// The reduction runs along b's rows, the axis gemmAddAVX2 vectorises
	// over, so that path works on bᵀ: k·n copies, once per product (hence
	// chosen by the product's size, not a share's), against m·k·n
	// multiply-adds.
	var bt []float64
	if m*n*k >= asmFrom {
		bt = Get(n * k)
		for p := 0; p < k; p++ {
			for j, v := range b[p*n : (p+1)*n] {
				bt[j*k+p] = v
			}
		}
	}
	parallelRows(m, n*k, func(lo, hi int) {
		gemmABtAddRange(dst, a, b, bt, lo, hi, n, k)
	})
	Put(bt)
}

// gemmABtAddRange accumulates dst rows [lo,hi) of dst += a·bᵀ. Four
// rows of b are dotted against one streaming row of a per pass; each
// dot is a single accumulator running ascending in j. Given bt = bᵀ it
// runs gemmAddAVX2 into a zeroed tile and adds the tile to dst, which is
// the same s := 0; s += g·b[j] …; dst += s, float for float.
func gemmABtAddRange(dst, a, b, bt []float64, lo, hi, n, k int) {
	if bt != nil {
		tile := Get((hi - lo) * k)
		gemmAddAVX2(&tile[0], &a[lo*n], &bt[0], hi-lo, n, k, n, 1)
		AccumAdd(dst[lo*k:hi*k], tile)
		Put(tile)
		return
	}
	for i := lo; i < hi; i++ {
		gr := a[i*n : (i+1)*n]
		dr := dst[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			b0 := b[p*n : (p+1)*n]
			b1 := b[(p+1)*n : (p+2)*n]
			b2 := b[(p+2)*n : (p+3)*n]
			b3 := b[(p+3)*n : (p+4)*n]
			var s0, s1, s2, s3 float64
			for j, g := range gr {
				s0 += g * b0[j]
				s1 += g * b1[j]
				s2 += g * b2[j]
				s3 += g * b3[j]
			}
			dr[p] += s0
			dr[p+1] += s1
			dr[p+2] += s2
			dr[p+3] += s3
		}
		for ; p < k; p++ {
			br := b[p*n : (p+1)*n]
			var s float64
			for j, g := range gr {
				s += g * br[j]
			}
			dr[p] += s
		}
	}
}

func (blocked) GemmAtBAdd(dst, a, g []float64, m, k, n int) {
	checkGemmT(dst, a, g, m, k, n) // dst k×n, a m×k, g m×n
	parallelRows(k, m*n, func(lo, hi int) {
		gemmAtBAddRange(dst, a, g, lo, hi, m, k, n)
	})
}

// gemmAtBAddRange accumulates dst rows [lo,hi) of dst += aᵀ·g, where
// dst rows are indexed by a's column p. Contributions arrive in
// ascending row order of a (the reduction axis), 4x unrolled with
// sequential adds so the per-element order matches the naive loop.
func gemmAtBAddRange(dst, a, g []float64, lo, hi, m, k, n int) {
	if (hi-lo)*m*n >= asmFrom {
		// Row p of dst reduces over column p of a: strides (1, k) read a
		// transposed in place. Panels of the reduction run in ascending
		// order, each resuming from dst, so an element's sum is unbroken.
		for i := 0; i < m; i += mc {
			gemmAddAVX2(&dst[lo*n], &a[i*k+lo], &g[i*n], hi-lo, min(mc, m-i), n, 1, k)
		}
		return
	}
	for p := lo; p < hi; p++ {
		dr := dst[p*n : (p+1)*n]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := a[i*k+p]
			a1 := a[(i+1)*k+p]
			a2 := a[(i+2)*k+p]
			a3 := a[(i+3)*k+p]
			g0 := g[i*n : (i+1)*n]
			g1 := g[(i+1)*n : (i+2)*n]
			g2 := g[(i+2)*n : (i+3)*n]
			g3 := g[(i+3)*n : (i+4)*n]
			for j := range dr {
				s := dr[j]
				s += a0 * g0[j]
				s += a1 * g1[j]
				s += a2 * g2[j]
				s += a3 * g3[j]
				dr[j] = s
			}
		}
		for ; i < m; i++ {
			av := a[i*k+p]
			gi := g[i*n : (i+1)*n]
			for j := range dr {
				dr[j] += av * gi[j]
			}
		}
	}
}

func (blocked) DenseForward(dst, x, w, bias []float64, m, k, n int, act Act, slope float64) {
	checkGemm(dst, x, w, m, k, n)
	if bias != nil && len(bias) != n {
		panic("kernels: DenseForward bias length mismatch")
	}
	parallelRows(m, k*n+2*n, func(lo, hi int) {
		gemmAddRange(dst, x, w, lo, hi, k, n)
		biasActRange(dst, bias, lo, hi, n, act, slope)
	})
}

// biasActRange applies dst[i] = act(dst[i] + bias) to rows [lo,hi).
func biasActRange(dst, bias []float64, lo, hi, n int, act Act, slope float64) {
	for i := lo; i < hi; i++ {
		row := dst[i*n : (i+1)*n]
		if bias != nil {
			add(row, row, bias)
		}
		actInPlace(row, act, slope)
	}
}

// AdamStep runs adamAVX2 on the multiple of four in front and adamGo on
// the rest. grad, m and v are cut to len(data) first, so a short buffer
// panics here instead of sending the routine past its end.
func (blocked) AdamStep(data, grad, m, v []float64, beta1, beta2, lr, eps, c1, c2 float64) {
	grad, m, v = grad[:len(data)], m[:len(data)], v[:len(data)]
	n := 0
	if vecAVX2 && len(data) >= 4 {
		n = len(data) &^ 3
		adamAVX2(&data[0], &grad[0], &m[0], &v[0], n, beta1, 1-beta1, beta2, 1-beta2, lr, eps, c1, c2)
	}
	adamGo(data[n:], grad[n:], m[n:], v[n:], beta1, beta2, lr, eps, c1, c2)
}

func checkGemm(dst, a, b []float64, m, k, n int) {
	if len(dst) < m*n || len(a) < m*k || len(b) < k*n {
		panic("kernels: gemm buffer shorter than its shape")
	}
}

func checkGemmT(dst, a, g []float64, m, k, n int) {
	if len(dst) < k*n || len(a) < m*k || len(g) < m*n {
		panic("kernels: gemm buffer shorter than its shape")
	}
}
