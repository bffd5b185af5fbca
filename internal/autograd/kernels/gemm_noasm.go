//go:build !amd64 || purego

package kernels

// No assembly in this build: the Go loops of blocked.go are the only path.
const hasAVX2 = false

func gemmAddAVX2(dst, a, b *float64, m, k, n, aRow, aCol int) {
	panic("kernels: gemmAddAVX2 called in a build without it")
}
