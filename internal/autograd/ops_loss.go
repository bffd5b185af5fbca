package autograd

import (
	"fmt"
	"math"
)

// BCEWithLogits computes the mean binary cross-entropy between logits
// (Nx1) and labels (N values in {0,1}), fusing the sigmoid for numerical
// stability:
//
//	loss_i = max(x,0) - x*y + log(1 + exp(-|x|))
//
// The result is a 1x1 scalar suitable for Backward.
func BCEWithLogits(logits *Tensor, labels []float64) *Tensor {
	if logits.Cols != 1 || logits.Rows != len(labels) {
		panic(fmt.Sprintf("autograd: BCEWithLogits logits %dx%d vs %d labels", logits.Rows, logits.Cols, len(labels)))
	}
	n := len(labels)
	var total float64
	for i, x := range logits.Data {
		y := labels[i]
		total += math.Max(x, 0) - x*y + math.Log1p(math.Exp(-math.Abs(x)))
	}
	loss := total / float64(n)
	data := alloc(1)
	data[0] = loss
	out := newResult(1, 1, data, nil, logits)
	if out.parents == nil {
		return out
	}
	out.backward = func() {
		if logits.Grad == nil {
			return
		}
		g := out.Grad[0] / float64(n)
		for i, x := range logits.Data {
			p := 1 / (1 + math.Exp(-x))
			logits.Grad[i] += g * (p - labels[i])
		}
	}
	return out
}
