package models

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
)

// TestBackwardWritesOnlyGatheredRows is the contract the row-restricted
// train step stands on, for every structure: after one backward, every
// non-zero Grad row of every declared table is in the RowSet gathered
// from the batch — and the set is not trivially everything.
func TestBackwardWritesOnlyGatheredRows(t *testing.T) {
	ds := testDataset(t)
	b := ds.Batches(2, data.Train, 16, nil)[0]
	for _, name := range allModelNames {
		m := MustNew(name, smallConfig(ds))
		params := m.Parameters()
		tables := EmbeddingTablesOf(m)
		if len(tables) == 0 {
			t.Fatalf("%s declares no embedding tables on a learned-embedding dataset", name)
		}
		rs := NewRowSet(params, tables)
		rs.Gather(b)

		for _, p := range params {
			p.ZeroGrad()
		}
		loss := autograd.BCEWithLogits(m.Forward(b, true), b.Labels)
		loss.Backward()
		loss.Release()

		proper := 0 // tables of which the batch gathers a proper subset
		for _, tr := range rs {
			p := params[tr.Param]
			if !slices.IsSorted(tr.Rows) || len(slices.Compact(slices.Clone(tr.Rows))) != len(tr.Rows) {
				t.Fatalf("%s table %d: rows %v are not distinct ascending", name, tr.Param, tr.Rows)
			}
			if len(tr.Rows) < p.Rows {
				proper++
			}
			withGrad := 0
			for r := 0; r < p.Rows; r++ {
				nonZero := slices.ContainsFunc(p.Grad[r*p.Cols:(r+1)*p.Cols], func(g float64) bool { return g != 0 })
				_, gathered := slices.BinarySearch(tr.Rows, r)
				if nonZero && !gathered {
					t.Fatalf("%s table %d (field %d): row %d has gradient but is not in the batch's row set", name, tr.Param, tr.Field, r)
				}
				if nonZero {
					withGrad++
				}
			}
			if withGrad == 0 {
				t.Fatalf("%s table %d: no gathered row received gradient", name, tr.Param)
			}
		}
		if proper == 0 {
			t.Fatalf("%s: the batch gathers every row of every table; the test needs a proper subset", name)
		}
	}
}

// TestRowSetUnionAcrossBatches: Add + Compact over several batches is
// the union of their Gathers, and ids outside a table are left to the
// Gather op to report.
func TestRowSetUnionAcrossBatches(t *testing.T) {
	ds := testDataset(t)
	m := MustNew("mlp", smallConfig(ds))
	params := m.Parameters()
	one, union := NewRowSet(params, EmbeddingTablesOf(m)), NewRowSet(params, EmbeddingTablesOf(m))
	want := make([]map[int]bool, len(one))
	for k := range want {
		want[k] = map[int]bool{}
	}
	for _, b := range ds.Batches(1, data.Train, 16, nil)[:3] {
		union.Add(b)
		one.Gather(b)
		for k, tr := range one {
			for _, r := range tr.Rows {
				want[k][r] = true
			}
		}
	}
	union.Compact()
	for k, tr := range union {
		if len(tr.Rows) != len(want[k]) || !slices.IsSorted(tr.Rows) {
			t.Fatalf("table %d: union has %d rows, want %d distinct ascending", tr.Param, len(tr.Rows), len(want[k]))
		}
	}

	bad := ds.Batches(0, data.Train, 4, nil)[0]
	bad.FieldValues[one[0].Field][0] = params[one[0].Param].Rows // one past the table
	one.Gather(bad)
	if slices.Contains(one[0].Rows, params[one[0].Param].Rows) {
		t.Fatal("an id outside the table entered the row set")
	}
	union.Reset()
	if len(union[0].Rows) != 0 {
		t.Fatal("Reset left rows behind")
	}
	if len(NewRowSet(params, nil)) != 0 {
		t.Fatal("a model that declares no tables must get an empty row set")
	}
}

// TestPerDomainTowersRefuseUnbuiltDomain: the five structures that build
// a sub-network per domain say so (DomainCapacity) and panic with a
// message naming the structure, its tower count and the domain id when a
// batch names a domain they were not built on; the others have no limit.
func TestPerDomainTowersRefuseUnbuiltDomain(t *testing.T) {
	ds := testDataset(t)
	towered := map[string]bool{"sharedbottom": true, "mmoe": true, "cgc": true, "ple": true, "star": true}
	for _, name := range allModelNames {
		m := MustNew(name, smallConfig(ds))
		n, bounded := DomainCapacity(m)
		if bounded != towered[name] || (bounded && n != ds.NumDomains()) {
			t.Fatalf("%s: DomainCapacity = %d, %v; want bounded=%v at %d", name, n, bounded, towered[name], ds.NumDomains())
		}
		b := ds.FullBatch(0, data.Test)
		b.Domain = ds.NumDomains()
		var msg string
		func() {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			m.Forward(b, false).Release()
		}()
		if !towered[name] {
			if msg != "" {
				t.Fatalf("%s has no per-domain towers but panicked on a new domain id: %s", name, msg)
			}
			continue
		}
		for _, part := range []string{m.Name(), fmt.Sprintf("%d per-domain towers", n), fmt.Sprintf("domain %d", b.Domain)} {
			if !strings.Contains(msg, part) {
				t.Fatalf("%s: panic %q does not name %q", name, msg, part)
			}
		}
	}
}
