package quant

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func randTable(rows, cols int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		// Spread row norms over orders of magnitude, like trained
		// embedding tables do.
		norm := math.Pow(10, rng.Float64()*4-2)
		for c := 0; c < cols; c++ {
			data[r*cols+c] = rng.NormFloat64() * norm
		}
	}
	return data
}

func TestRoundTripErrorBound(t *testing.T) {
	const rows, cols = 64, 16
	data := randTable(rows, cols, 3)
	tbl := Quantize(data, rows, cols)
	dec := tbl.Dequantize()
	for r := 0; r < rows; r++ {
		bound := tbl.MaxError(r) * 1.0000001 // float32 scale storage slack
		for c := 0; c < cols; c++ {
			got, want := dec[r*cols+c], data[r*cols+c]
			if err := math.Abs(got - want); err > bound {
				t.Fatalf("row %d col %d: |%g-%g| = %g > scale/2 = %g", r, c, got, want, err, bound)
			}
		}
	}
}

// TestPatchIsTheWholeTableQuantized: Patch of a quantized table with
// some rows replaced decodes every row, and reports every row's error
// bound, exactly as Quantize of the replaced table — a row of -0
// included — while holding codes for the patched rows only.
func TestPatchIsTheWholeTableQuantized(t *testing.T) {
	const rows, cols = 32, 8
	base := randTable(rows, cols, 5)
	replaced := append([]float64(nil), base...)
	ids := []uint32{0, 3, 17, 31}
	for k, r := range ids {
		for c := 0; c < cols; c++ {
			x := float64(k+1) * float64(c-3)
			if k == 1 {
				x = math.Copysign(0, -1)
			}
			replaced[int(r)*cols+c] = x
		}
	}
	p := Patch(Quantize(base, rows, cols), ids, func(k int, dst []float64) {
		copy(dst, replaced[int(ids[k])*cols:])
	})
	if len(p.Scales) != len(ids) || len(p.Data) != len(ids)*cols {
		t.Fatalf("patch holds %d scales and %d codes, want %d and %d", len(p.Scales), len(p.Data), len(ids), len(ids)*cols)
	}
	want := Quantize(replaced, rows, cols)
	got, exp := p.Dequantize(), want.Dequantize()
	for i := range exp {
		if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
			t.Fatalf("value %d: patched %v, whole table %v", i, got[i], exp[i])
		}
	}
	for r := 0; r < rows; r++ {
		if p.MaxError(r) != want.MaxError(r) {
			t.Fatalf("row %d: patched MaxError %v, whole table %v", r, p.MaxError(r), want.MaxError(r))
		}
	}
}

func TestZeroRow(t *testing.T) {
	data := make([]float64, 2*4)
	data[4], data[5], data[6], data[7] = 1, -2, 3, -4
	tbl := Quantize(data, 2, 4)
	if tbl.Scales[0] != 0 {
		t.Fatalf("zero row scale = %g, want 0", tbl.Scales[0])
	}
	row := make([]float64, 4)
	tbl.Row(0, row)
	for i, v := range row {
		if v != 0 {
			t.Fatalf("zero row decoded [%d] = %g", i, v)
		}
	}
	tbl.Row(1, row)
	// The maxAbs element decodes to ±127·scale — exact up to the float32
	// rounding of the stored scale.
	if math.Abs(row[3]+4) > 1e-6 {
		t.Fatalf("maxAbs element decoded %g, want ≈ -4", row[3])
	}
}

func TestCodesStayInRange(t *testing.T) {
	data := randTable(32, 8, 9)
	tbl := Quantize(data, 32, 8)
	for i, q := range tbl.Data {
		if q < -127 || q > 127 {
			t.Fatalf("code[%d] = %d out of symmetric range", i, q)
		}
	}
}

func TestBytesPerRow(t *testing.T) {
	tbl := Quantize(make([]float64, 3*32), 3, 32)
	if got := tbl.BytesPerRow(); got != 36 {
		t.Fatalf("BytesPerRow = %d, want 36", got)
	}
	if got := tbl.Float64BytesPerRow(); got != 256 {
		t.Fatalf("Float64BytesPerRow = %d, want 256", got)
	}
}

func TestDeterministic(t *testing.T) {
	data := randTable(16, 8, 11)
	a, b := Quantize(data, 16, 8), Quantize(data, 16, 8)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("codes diverge at %d", i)
		}
	}
	for i := range a.Scales {
		if a.Scales[i] != b.Scales[i] {
			t.Fatalf("scales diverge at %d", i)
		}
	}
}

func TestRowCacheLRU(t *testing.T) {
	tbl := Quantize(randTable(8, 4, 5), 8, 4)
	c := NewRowCache(2)
	get := func(row int) []float64 {
		return c.Get(Key{Snap: 1, Row: row}, 4, func(dst []float64) { tbl.Row(row, dst) })
	}
	r0 := get(0)
	get(1)
	if h, m := c.Stats(); h != 0 || m != 2 {
		t.Fatalf("stats after 2 cold gets = %d/%d", h, m)
	}
	r0again := get(0) // hit
	if h, _ := c.Stats(); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}
	if &r0[0] != &r0again[0] {
		t.Fatal("hit returned a different slice")
	}
	get(2) // evicts row 1 (LRU), not row 0
	get(0)
	if h, m := c.Stats(); h != 2 || m != 3 {
		t.Fatalf("stats = %d/%d, want 2/3 (row 0 stayed hot)", h, m)
	}
	get(1) // was evicted: miss
	if _, m := c.Stats(); m != 4 {
		t.Fatalf("misses = %d, want 4 (row 1 was evicted)", m)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want cap 2", c.Len())
	}
}

func TestRowCacheDistinguishesSnapshots(t *testing.T) {
	c := NewRowCache(8)
	a := c.Get(Key{Snap: 1, Row: 0}, 2, func(dst []float64) { dst[0] = 1 })
	b := c.Get(Key{Snap: 2, Row: 0}, 2, func(dst []float64) { dst[0] = 2 })
	if a[0] == b[0] {
		t.Fatal("different snapshots shared a cache row")
	}
}

// TestRowCacheConcurrent hammers the cache from many goroutines under
// -race: returned rows must always decode correctly even while entries
// churn through a tiny capacity.
func TestRowCacheConcurrent(t *testing.T) {
	const rows, cols = 64, 8
	tbl := Quantize(randTable(rows, cols, 7), rows, cols)
	want := tbl.Dequantize()
	c := NewRowCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				r := rng.Intn(rows)
				got := c.Get(Key{Row: r}, cols, func(dst []float64) { tbl.Row(r, dst) })
				for j := 0; j < cols; j++ {
					if got[j] != want[r*cols+j] {
						t.Errorf("row %d col %d = %g, want %g", r, j, got[j], want[r*cols+j])
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
