//go:build !amd64 || purego

package kernels

// No assembly in this build: the Go loops of blocked.go and
// elementwise.go are the only path.
const hasAVX2 = false

func gemmAddAVX2(dst, a, b *float64, m, k, n, aRow, aCol int) {
	panic("kernels: gemmAddAVX2 called in a build without it")
}

func adamAVX2(data, grad, m, v *float64, n int, b1, a1, b2, a2, lr, eps, c1, c2 float64) {
	panic("kernels: adamAVX2 called in a build without it")
}

func addAVX2(dst, a, b *float64, n int) {
	panic("kernels: addAVX2 called in a build without it")
}
