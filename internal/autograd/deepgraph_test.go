package autograd

import (
	"runtime/debug"
	"testing"

	"mamdr/internal/autograd/kernels"
)

// TestBackwardVeryDeepGraph is the stack-depth regression test:
// Backward's post-order used to be a recursive DFS, and a graph a few
// hundred thousand nodes deep — a long chain of inner-loop steps —
// blew the goroutine stack, which is a fatal, unrecoverable error.
// The iterative traversal must handle it under a deliberately small
// stack ceiling.
func TestBackwardVeryDeepGraph(t *testing.T) {
	old := debug.SetMaxStack(4 << 20) // 4 MiB: the recursive walk dies ~50k frames in
	defer debug.SetMaxStack(old)

	const depth = 200_000
	x := Param(1, 1, []float64{1})
	h := AddScalar(x, 0)
	for i := 1; i < depth; i++ {
		h = AddScalar(h, 0)
	}
	h.Backward()
	if got := x.Grad[0]; got != 1 {
		t.Fatalf("grad through %d-deep chain = %g, want 1", depth, got)
	}
	h.Release()
}

// TestReleaseRecyclesGraphBuffers verifies Release returns op-result
// buffers to the arena (the same allocation comes back on the next
// step) and never touches leaves.
func TestReleaseRecyclesGraphBuffers(t *testing.T) {
	x := Param(4, 4, make([]float64, 16))
	w := ParamZeros(4, 4)

	out := MatMul(x, w)
	loss := Sum(out)
	loss.Backward()
	outData := &out.Data[0]
	loss.Release()

	if out.Data != nil || out.parents != nil || out.backward != nil {
		t.Fatal("Release left the op result alive")
	}
	if x.Data == nil || w.Data == nil || x.Grad == nil {
		t.Fatal("Release touched leaf parameters")
	}

	// The next identically-shaped step should reuse the same buffer.
	out2 := MatMul(x, w)
	if &out2.Data[0] != outData {
		t.Log("note: arena handed out a different buffer (GC may have intervened); values still correct")
	}
	for i, v := range out2.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %g", i, v)
		}
	}
	Sum(out2).Release()

	// Release on a bare leaf is a no-op.
	x.Release()
	if x.Data == nil {
		t.Fatal("Release freed a leaf")
	}
}

// TestReleasedTensorSafeAgainstDoubleRelease pins that a second
// Release is harmless (the buffers must not be double-pooled, which
// would hand one slice to two tensors).
func TestReleasedTensorSafeAgainstDoubleRelease(t *testing.T) {
	x := Param(2, 2, []float64{1, 2, 3, 4})
	out := Scale(x, 2)
	out.Release()
	out.Release()
	if out.Data != nil {
		t.Fatal("double Release resurrected the tensor")
	}
}

// TestReleaseSharedNodePooledOnce pins the walk's one invariant without
// a visited set: a node reached along two edges (a diamond) gives its
// buffer back once, so two later Gets of its class never alias.
func TestReleaseSharedNodePooledOnce(t *testing.T) {
	x := Param(8, 8, make([]float64, 64))
	a := Scale(x, 2)
	out := Add(Mul(a, a), a)
	out.Release()
	if a.Data != nil || a.pooled {
		t.Fatal("Release left the shared node alive")
	}
	var got [][]float64
	for i := 0; i < 8; i++ {
		got = append(got, kernels.Get(64))
	}
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if &got[i][0] == &got[j][0] {
				t.Fatalf("buffers %d and %d alias: a buffer was pooled twice", i, j)
			}
		}
	}
}
