//go:build amd64 && !purego

package kernels

// gemmAddAVX2 (gemm_amd64.s) is the micro-kernel under all three blocked
// products: dst[i][j] += Σ_p a[i·aRow + p·aCol]·b[p][j] for i < m, j < n,
// dst and b row-major at stride n, the strides of a free — (k, 1) reads
// a as m×k, (1, k) reads it transposed without a copy. It vectorises
// over output columns only and multiplies and adds in two roundings, so
// it is bit-identical to the Go loops. m, k and n must be positive.
//
//go:noescape
func gemmAddAVX2(dst, a, b *float64, m, k, n, aRow, aCol int)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (CPUID and XGETBV, gemm_amd64.s).
func cpuHasAVX2() bool

var hasAVX2 = cpuHasAVX2()
