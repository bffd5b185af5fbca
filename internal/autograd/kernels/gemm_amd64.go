//go:build amd64 && !purego

package kernels

// gemmAddAVX2 (gemm_amd64.s) is the micro-kernel under all three blocked
// products: dst[i][j] += Σ_p a[i·aRow + p·aCol]·b[p][j] for i < m, j < n,
// dst and b row-major at stride n, the strides of a free — (k, 1) reads
// a as m×k, (1, k) reads it transposed without a copy. It vectorises
// over output columns only, eight per instruction where zmmTiles is set
// and four otherwise, and multiplies and adds in two roundings, so it is
// bit-identical to the Go loops. m, k and n must be positive.
//
//go:noescape
func gemmAddAVX2(dst, a, b *float64, m, k, n, aRow, aCol int)

// cpuid returns the registers the CPUID instruction sets for leaf and
// subleaf; xgetbv returns XCR0's low word, the register states the OS
// saves on a context switch (gemm_amd64.s).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() uint32

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers; hasAVX512 whether it has AVX-512F as well and the OS saves
// the ZMM and opmask registers. Without the OS's part a context switch
// loses the upper lanes.
var hasAVX2, hasAVX512 = cpuFeatures()

func cpuFeatures() (avx2, avx512 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	// CPUID.1:ECX bit 27: the OS enabled XSAVE, so XGETBV may run; bit
	// 28: AVX.
	const osxsaveAVX = 1<<27 | 1<<28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsaveAVX != osxsaveAVX {
		return false, false
	}
	// XCR0 bits 1 and 2 are the XMM and YMM state; 5, 6 and 7 the opmask
	// registers, ZMM0–15's upper halves and ZMM16–31. CPUID.7.0:EBX bit 5
	// is AVX2, bit 16 AVX-512F.
	const ymmState, zmmState = 1<<1 | 1<<2, 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	xcr0 := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = xcr0&ymmState == ymmState && ebx&(1<<5) != 0
	avx512 = avx2 && xcr0&zmmState == zmmState && ebx&(1<<16) != 0
	return avx2, avx512
}
