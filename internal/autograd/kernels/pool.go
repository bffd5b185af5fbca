package kernels

import (
	"math/bits"
	"sync"
	"unsafe"
)

// The buffer arena: float64 scratch slices recycled through sync.Pool
// size classes (powers of two). Autograd op results draw their Data
// and Grad buffers from here and return them when a finished graph is
// released, so steady-state training and serving stop allocating per
// op. Get returns zeroed memory, exactly like make, so kernels that
// rely on zero initialization (accumulating GEMM, ReLU) need no
// special casing.

const (
	// minPoolClass is the smallest pooled class, 1<<5 = 32 elements;
	// smaller requests round up rather than fragmenting the pool.
	minPoolClass = 5
	// maxPoolClass caps pooling at 1<<21 elements (16 MiB); larger
	// buffers fall through to the garbage collector.
	maxPoolClass = 21
)

// pools[c] holds free buffers of 1<<c elements, each as a pointer to its
// first element: a pointer fits in an interface without a heap-allocated
// box, where a slice header would take one on every Put. The pointer
// keeps the whole backing array alive.
var pools [maxPoolClass + 1]sync.Pool

// Get returns a zeroed []float64 of length n, recycled from the arena
// when a buffer of n's size class is available.
func Get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if c > maxPoolClass {
		return make([]float64, n)
	}
	if v := pools[c].Get(); v != nil {
		buf := unsafe.Slice(v.(*float64), 1<<c)[:n]
		clear(buf)
		return buf
	}
	return make([]float64, n, 1<<c)
}

// Put returns a buffer obtained from Get to the arena. Buffers whose
// capacity is not an exact pooled size class (e.g. caller-allocated
// slices) are dropped, so Put is safe on any slice. The caller must
// not touch buf afterwards.
func Put(buf []float64) {
	c := sizeClass(cap(buf))
	if c < minPoolClass || c > maxPoolClass || cap(buf) != 1<<c {
		return
	}
	pools[c].Put(unsafe.SliceData(buf))
}

// sizeClass returns the smallest c with 1<<c >= n, floored at
// minPoolClass.
func sizeClass(n int) int {
	c := bits.Len(uint(n - 1))
	if c < minPoolClass {
		c = minPoolClass
	}
	return c
}
