package models

import (
	"fmt"

	"mamdr/internal/autograd"
)

// Layout is what every holder of a model's parameters — a parameter
// server, a worker, a checkpoint, a serving snapshot — agrees on: each
// tensor's shape, in Parameters() order, and for each embedding table
// the schema field whose ids index its rows. Tensor t is a table if and
// only if Field[t] ≥ 0; a table is synchronized and stored row-wise,
// any other tensor whole.
type Layout struct {
	Rows, Cols []int
	Field      []int
}

// LayoutOf is the layout of params, whose embedding tables are the
// indices tables keys (the EmbeddingTablesOf map). It reads shapes
// only, so params may be bound elsewhere.
func LayoutOf(params []*autograd.Tensor, tables map[int]int) Layout {
	l := Layout{Rows: make([]int, len(params)), Cols: make([]int, len(params)), Field: make([]int, len(params))}
	for i, p := range params {
		l.Rows[i], l.Cols[i], l.Field[i] = p.Rows, p.Cols, -1
		if f, ok := tables[i]; ok {
			l.Field[i] = f
		}
	}
	return l
}

// IsTable reports whether tensor t is an embedding table.
func (l Layout) IsTable(t int) bool { return l.Field[t] >= 0 }

// Tables is the classification LayoutOf was given: embedding tensor
// index → schema field.
func (l Layout) Tables() map[int]int {
	tables := map[int]int{}
	for t, f := range l.Field {
		if f >= 0 {
			tables[t] = f
		}
	}
	return tables
}

// NumTensors returns the number of tensors.
func (l Layout) NumTensors() int { return len(l.Rows) }

// Validate refuses a layout whose slices are misaligned, whose tensors
// have a degenerate shape, or whose tables name a field outside a
// schema of numFields fields; pass a negative numFields to skip that
// bound (when the schema is not at hand).
func (l Layout) Validate(numFields int) error {
	n := len(l.Rows)
	if len(l.Cols) != n || len(l.Field) != n {
		return fmt.Errorf("models: layout slices misaligned: rows=%d cols=%d field=%d", n, len(l.Cols), len(l.Field))
	}
	for t := 0; t < n; t++ {
		if l.Rows[t] <= 0 || l.Cols[t] <= 0 {
			return fmt.Errorf("models: tensor %d has degenerate shape %dx%d", t, l.Rows[t], l.Cols[t])
		}
		if numFields >= 0 && l.Field[t] >= numFields {
			return fmt.Errorf("models: tensor %d maps to field %d, schema has %d fields", t, l.Field[t], numFields)
		}
	}
	return nil
}

// Fit reports why vec is not one segment per tensor of Rows[t]×Cols[t]
// values each. It divides rather than multiplies, so a hostile shape
// cannot wrap the product.
func (l Layout) Fit(vec [][]float64) error {
	if len(vec) != l.NumTensors() {
		return fmt.Errorf("%d segments, the layout has %d tensors", len(vec), l.NumTensors())
	}
	for t, v := range vec {
		if rows, cols := l.Rows[t], l.Cols[t]; cols == 0 && len(v) != 0 || cols != 0 && (len(v)%cols != 0 || len(v)/cols != rows) {
			return fmt.Errorf("segment %d has %d values, its tensor is %dx%d", t, len(v), rows, cols)
		}
	}
	return nil
}

// Same reports the first tensor whose shape or field differs in got.
func (l Layout) Same(got Layout) error {
	if n := l.NumTensors(); len(got.Rows) != n || len(got.Cols) != n || len(got.Field) != n {
		return fmt.Errorf("%d tensors, want %d", got.NumTensors(), n)
	}
	for t := range l.Rows {
		if got.Rows[t] != l.Rows[t] || got.Cols[t] != l.Cols[t] || got.Field[t] != l.Field[t] {
			return fmt.Errorf("tensor %d is %dx%d (field %d), want %dx%d (field %d)",
				t, got.Rows[t], got.Cols[t], got.Field[t], l.Rows[t], l.Cols[t], l.Field[t])
		}
	}
	return nil
}
