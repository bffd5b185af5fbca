//go:build amd64 && !purego

package kernels

// adamAVX2 (elementwise_amd64.s) is adamGo four elements per instruction:
// one Adam update of data[0:n] from grad, advancing the moments m and v,
// with a1 = 1−b1 and a2 = 1−b2. Every lane runs adamGo's operations in
// its order, so the two are bit-identical. n must be a positive multiple
// of 4, and all four buffers must hold n elements.
//
//go:noescape
func adamAVX2(data, grad, m, v *float64, n int, b1, a1, b2, a2, lr, eps, c1, c2 float64)

// addAVX2 (elementwise_amd64.s) sets dst[i] = a[i] + b[i] for i < n, four
// elements per instruction; dst may be a or b itself. n must be a
// positive multiple of 4.
//
//go:noescape
func addAVX2(dst, a, b *float64, n int)
