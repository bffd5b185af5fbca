package autograd

import (
	"fmt"
	"math/rand"

	"mamdr/internal/autograd/kernels"
)

// Gather selects rows of the table (VxD) by index, producing an NxD
// tensor where row i is table[indices[i]]. It is the embedding-lookup
// primitive; the backward pass scatter-adds gradients into the selected
// rows only, which keeps sparse-embedding training cheap. A table bound
// to a RowSource (BindRows) is read through it, row by row.
func Gather(table *Tensor, indices []int) *Tensor {
	d := table.Cols
	data := alloc(len(indices) * d)
	for i, idx := range indices {
		if idx < 0 || idx >= table.Rows {
			panic(fmt.Sprintf("autograd: Gather index %d out of range [0,%d)", idx, table.Rows))
		}
		if table.rows != nil {
			table.rows.Row(idx, data[i*d:(i+1)*d])
		} else {
			copy(data[i*d:(i+1)*d], table.Data[idx*d:(idx+1)*d])
		}
	}
	out := newResult(len(indices), d, data, nil, table)
	if out.parents == nil {
		return out
	}
	out.backward = func() {
		if table.Grad != nil {
			for i, idx := range indices {
				kernels.AccumAdd(table.Grad[idx*d:(idx+1)*d], out.Grad[i*d:(i+1)*d])
			}
		}
	}
	return out
}

// Dropout randomly zeroes elements of a with probability p and scales the
// survivors by 1/(1-p) (inverted dropout). When training is false it is
// the identity.
func Dropout(a *Tensor, p float64, training bool, rng *rand.Rand) *Tensor {
	if !training || p <= 0 {
		return a
	}
	if p >= 1 {
		panic("autograd: Dropout probability must be < 1")
	}
	keep := 1 - p
	mask := make([]float64, len(a.Data))
	data := alloc(len(a.Data))
	for i, v := range a.Data {
		if rng.Float64() < keep {
			mask[i] = 1 / keep
			data[i] = v * mask[i]
		}
	}
	out := newResult(a.Rows, a.Cols, data, nil, a)
	if out.parents == nil {
		return out
	}
	out.backward = func() {
		if a.Grad != nil {
			for i, g := range out.Grad {
				a.Grad[i] += g * mask[i]
			}
		}
	}
	return out
}
