package models

import (
	"slices"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
)

// TableRows is one embedding table of a model and a set of its rows.
type TableRows struct {
	// Param indexes the table in Parameters(); Field is the schema field
	// whose ids index its rows (the EmbeddingTabler pair).
	Param, Field int
	// Rows holds distinct row ids in ascending order once Gather or
	// Compact has run.
	Rows []int

	numRows int
}

// RowSet is the embedding rows a piece of training reads and writes: one
// entry per declared table, in parameter order. A batch's forward gathers
// exactly these rows, so its backward leaves every other row of the
// table's Grad untouched — which is what lets a train step, a DR
// lookahead and a parameter-server pull cost O(touched rows) instead of
// O(table).
type RowSet []TableRows

// NewRowSet returns the empty row set over the tables declared by
// tables (parameter index → schema field, the EmbeddingTablesOf map)
// among params. A model that declares no tables gets an empty set.
func NewRowSet(params []*autograd.Tensor, tables map[int]int) RowSet {
	rs := make(RowSet, 0, len(tables))
	for p, f := range tables {
		rs = append(rs, TableRows{Param: p, Field: f, numRows: params[p].Rows})
	}
	slices.SortFunc(rs, func(a, b TableRows) int { return a.Param - b.Param })
	return rs
}

// Gather sets every table's Rows to the distinct rows b's forward will
// gather from it. Ids outside the table are left out: Gather (the op)
// panics on them with the table's shape, which is the better message.
func (rs RowSet) Gather(b *data.Batch) {
	rs.Reset()
	rs.Add(b)
	rs.Compact()
}

// Add appends b's rows without deduplicating; Compact restores the
// distinct ascending form. Accumulating a union over several batches
// this way sorts once instead of once per batch.
func (rs RowSet) Add(b *data.Batch) {
	for k := range rs {
		t := &rs[k]
		for _, id := range b.FieldValues[t.Field] {
			if id >= 0 && id < t.numRows {
				t.Rows = append(t.Rows, id)
			}
		}
	}
}

// Compact sorts every table's Rows and drops duplicates.
func (rs RowSet) Compact() {
	for k := range rs {
		slices.Sort(rs[k].Rows)
		rs[k].Rows = slices.Compact(rs[k].Rows)
	}
}

// Reset empties every table's Rows, keeping their storage.
func (rs RowSet) Reset() {
	for k := range rs {
		rs[k].Rows = rs[k].Rows[:0]
	}
}
