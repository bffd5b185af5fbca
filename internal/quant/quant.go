// Package quant compresses serving-snapshot embedding tables with an
// int8 symmetric-per-row codec — the serving twin of MAMDR §IV-E's
// static/dynamic embedding cache. A published snapshot's embedding
// rows are read-only and Zipf-skewed: a handful of hot users and items
// dominate traffic while the long tail sits cold in memory. Storing
// the tables as int8 with one float32 scale per row cuts the resident
// bytes per row from 8·cols to cols+4 (~7.8× at cols=32). Serving
// decodes each gathered row straight into the lookup's buffer: on a
// 2-vCPU Xeon that takes 12 ns at cols=16 and 24 ns at cols=32, less
// than a hit in a shared LRU of decoded rows (RowCache: 58 ns, and
// 255 ns on a miss).
//
// A snapshot quantizes θ_S's tables once (Quantize). Domain i serves
// θ_S + θ_i, which differs from θ_S + (+0) only at the rows θ_i stores
// — a few percent of a fitted θ_i — and the codec is per row, so the
// domain's table is Patch of θ_S's with those rows re-encoded: codes
// for the stored rows only, every other row read from the shared
// table (θ_S + (+0) quantizes as θ_S does: a -0 and a +0 encode
// alike), decoding exactly as Quantize of the whole composed table.
//
// The codec is symmetric (no zero point): scale_r = maxAbs(row_r)/127,
// q = round(x/scale), x̂ = float64(q)·float64(scale). Per-row scaling
// matters because embedding row norms spread over orders of magnitude
// — a per-table scale would crush the small rows to zero. The maximum
// reconstruction error is scale/2 per element, which the codec's tests
// pin and the serve-level AUC-delta experiment (EXPERIMENTS.md) shows
// is invisible at ranking granularity.
package quant

import (
	"fmt"
	"math"
	"slices"

	"mamdr/internal/autograd/kernels"
)

// Table is one quantized embedding table: Rows×Cols int8 codes plus a
// float32 scale per row. It is immutable after Quantize (or Patch) and
// safe for concurrent readers.
type Table struct {
	Rows, Cols int
	// Scales[r] reconstructs row r: x̂ = float64(code)·float64(Scales[r]).
	Scales []float32
	// Data holds Rows*Cols codes in row-major order.
	Data []int8
	// base and ids make a patched table (Patch): Scales and Data then
	// hold only rows ids, ascending, and every other row is base's.
	base *Table
	ids  []uint32
}

// Quantize encodes a rows×cols row-major float64 table. An all-zero
// row gets scale 0 and decodes to exact zeros.
func Quantize(data []float64, rows, cols int) *Table {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("quant: %d values for %d×%d table", len(data), rows, cols))
	}
	t := &Table{
		Rows: rows, Cols: cols,
		Scales: make([]float32, rows),
		Data:   make([]int8, rows*cols),
	}
	for r := range t.Scales {
		t.Scales[r] = encodeRow(t.Data[r*cols:(r+1)*cols], data[r*cols:(r+1)*cols])
	}
	return t
}

// Patch returns base with rows ids (ascending) re-encoded: row(k, dst)
// fills dst (Cols values) with row ids[k]'s new values. The codec is
// per row, so the patch decodes exactly as Quantize of base's source
// table with those rows replaced; it costs the patched rows, and base,
// unchanged, is shared.
func Patch(base *Table, ids []uint32, row func(k int, dst []float64)) *Table {
	t := &Table{
		Rows: base.Rows, Cols: base.Cols,
		Scales: make([]float32, len(ids)),
		Data:   make([]int8, len(ids)*base.Cols),
		base:   base, ids: ids,
	}
	buf := make([]float64, t.Cols)
	for k := range ids {
		row(k, buf)
		t.Scales[k] = encodeRow(t.Data[k*t.Cols:(k+1)*t.Cols], buf)
	}
	return t
}

// encodeRow quantizes row into codes and returns its scale.
func encodeRow(codes []int8, row []float64) float32 {
	var maxAbs float64
	for _, v := range row {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0 // codes 0
	}
	// The scale is stored as float32 and the encoder divides by the
	// *stored* value, so encode and decode agree on the same grid.
	scale := float32(maxAbs / 127)
	inv := 1 / float64(scale)
	for i, v := range row {
		q := math.RoundToEven(v * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		codes[i] = int8(q)
	}
	return scale
}

// at returns the table holding row r's codes and r's index in it.
func (t *Table) at(r int) (*Table, int) {
	if t.base == nil {
		return t, r
	}
	if k, ok := slices.BinarySearch(t.ids, uint32(r)); ok {
		return t, k
	}
	return t.base, r
}

// Row dequantizes row r into dst (len ≥ Cols).
func (t *Table) Row(r int, dst []float64) {
	t, r = t.at(r)
	kernels.DequantRowTo(dst[:t.Cols], t.Data[r*t.Cols:(r+1)*t.Cols], t.Scales[r])
}

// Dequantize reconstructs the whole table into a fresh float64 slice —
// the offline path the AUC-tradeoff experiment uses; serving decodes
// row-wise instead.
func (t *Table) Dequantize() []float64 {
	out := make([]float64, t.Rows*t.Cols)
	for r := 0; r < t.Rows; r++ {
		t.Row(r, out[r*t.Cols:(r+1)*t.Cols])
	}
	return out
}

// BytesPerRow is the resident size of one quantized row: Cols codes
// plus the float32 scale.
func (t *Table) BytesPerRow() int { return t.Cols + 4 }

// Float64BytesPerRow is the uncompressed size for comparison.
func (t *Table) Float64BytesPerRow() int { return 8 * t.Cols }

// MaxError returns the codec's worst-case reconstruction error for row
// r: half a quantization step.
func (t *Table) MaxError(r int) float64 {
	t, r = t.at(r)
	return float64(t.Scales[r]) / 2
}
