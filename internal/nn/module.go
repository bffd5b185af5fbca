// Package nn provides neural-network building blocks on top of the
// autograd engine: dense layers, multi-layer perceptrons, embeddings,
// normalization, and the self-attention interacting layer used by
// AutoInt. Every block implements Module, exposing its trainable
// parameters so learning frameworks can treat models as flat parameter
// vectors (the property MAMDR's model-agnosticism relies on).
package nn

import (
	"mamdr/internal/autograd"
)

// Module is anything that owns trainable parameters.
type Module interface {
	// Parameters returns the module's trainable tensors in a stable
	// order. The same order must be produced on every call so that
	// parameter vectors snapshotted by learning frameworks line up.
	Parameters() []*autograd.Tensor
}

// ParamCount returns the total number of scalar parameters in m.
func ParamCount(m Module) int {
	n := 0
	for _, p := range m.Parameters() {
		n += p.Size()
	}
	return n
}

// ZeroGrads clears the gradient buffers of all parameters of m.
func ZeroGrads(m Module) {
	for _, p := range m.Parameters() {
		p.ZeroGrad()
	}
}
