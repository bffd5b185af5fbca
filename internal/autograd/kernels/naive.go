package kernels

// naive is the straight-line reference backend: textbook triple loops,
// serial, no blocking or unrolling. It defines the bit pattern every
// other backend must reproduce and is kept for differential testing.
//
// Unlike the pre-kernel autograd loops it never skips zero operands:
// 0×Inf = NaN, and masking that is the bug this package exists to fix.
type naive struct{}

func (naive) Name() string { return "naive" }

func (naive) GemmAdd(dst, a, b []float64, m, k, n int) {
	checkGemm(dst, a, b, m, k, n)
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		or := dst[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			br := b[p*n : (p+1)*n]
			for j := range or {
				or[j] += av * br[j]
			}
		}
	}
}

func (naive) GemmABtAdd(dst, a, b []float64, m, n, k int) {
	checkGemm(dst, a, b, m, n, k)
	for i := 0; i < m; i++ {
		gr := a[i*n : (i+1)*n]
		dr := dst[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			br := b[p*n : (p+1)*n]
			var s float64
			for j, g := range gr {
				s += g * br[j]
			}
			dr[p] += s
		}
	}
}

func (naive) GemmAtBAdd(dst, a, g []float64, m, k, n int) {
	checkGemmT(dst, a, g, m, k, n)
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		gr := g[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			dr := dst[p*n : (p+1)*n]
			for j := range dr {
				dr[j] += av * gr[j]
			}
		}
	}
}

func (nv naive) DenseForward(dst, x, w, bias []float64, m, k, n int, act Act, slope float64) {
	checkGemm(dst, x, w, m, k, n)
	if bias != nil && len(bias) != n {
		panic("kernels: DenseForward bias length mismatch")
	}
	nv.GemmAdd(dst, x, w, m, k, n)
	biasActRange(dst, bias, 0, m, n, act, slope)
}

func (naive) AdamStep(data, grad, m, v []float64, beta1, beta2, lr, eps, c1, c2 float64) {
	adamGo(data, grad, m, v, beta1, beta2, lr, eps, c1, c2)
}
