package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/synth"
)

// specials are the float64s a vector block must carry bit for bit: a
// -0 alone in its row, NaNs with payloads, both infinities and
// subnormals of both signs.
var specials = []float64{
	math.Copysign(0, -1),
	math.Float64frombits(0x7ff8_0000_0000_0abc),
	math.Float64frombits(0xfff0_0000_0000_0001),
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(1), -math.Float64frombits(0x000f_ffff_ffff_ffff),
}

// sameBits fails unless got and want hold the same float64 bits,
// segment for segment.
func sameBits(t *testing.T, what string, got, want paramvec.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: segment %d has %d values, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s[%d][%d] = %#x, want %#x", what, i, j, math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
			}
		}
	}
}

func sameState(t *testing.T, got, want *State) {
	t.Helper()
	sameBits(t, "Shared", got.Shared, want.Shared)
	if len(got.Specific) != len(want.Specific) {
		t.Fatalf("%d specific vectors, want %d", len(got.Specific), len(want.Specific))
	}
	for d := range want.Specific {
		sameBits(t, "Specific", got.Specific[d], want.Specific[d])
	}
}

// specialState is a state of testModel whose θ_S and first θ_i carry
// every special value in a dense segment and in table rows of their
// own (the -0 alone in its row), whose second θ_i is all +0, and whose
// other θ_i each hold one ordinary row.
func specialState(t *testing.T) *State {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	params := m.Parameters()
	tables := models.EmbeddingTablesOf(m)
	dense, table := -1, -1
	for i := range params {
		if _, ok := tables[i]; ok && table < 0 {
			table = i
		} else if !ok && dense < 0 {
			dense = i
		}
	}
	if dense < 0 || table < 0 {
		t.Fatalf("test model has dense %d, table %d", dense, table)
	}
	shared := paramvec.Snapshot(params)
	st := &State{Model: m, Shared: shared}
	for range ds.Domains {
		st.Specific = append(st.Specific, shared.Zero())
	}
	cols := params[table].Cols
	for k, x := range specials {
		for _, v := range []paramvec.Vector{shared, st.Specific[0]} {
			v[dense][k] = x
			v[table][(2+3*k)*cols] = x
		}
	}
	for d := 2; d < len(st.Specific); d++ {
		st.Specific[d][table][(d+1)*cols+1] = float64(d) / 8
	}
	return st
}

// TestV5RoundTripIsBitExact: Save then Load gives back every θ float
// for float — the specials, an all-zero θ_i, and the serving pattern of
// every θ_i aliasing one zero vector — in a v5 file.
func TestV5RoundTripIsBitExact(t *testing.T) {
	st := specialState(t)
	alias := &State{Model: st.Model, Shared: st.Shared, Specific: make([]paramvec.Vector, len(st.Specific))}
	zero := st.Shared.Zero()
	for d := range alias.Specific {
		alias.Specific[d] = zero
	}
	for name, want := range map[string]*State{"specials": st, "aliased zero θ_i": alias} {
		path := filepath.Join(t.TempDir(), "v5.ckpt")
		if err := want.Save(path); err != nil {
			t.Fatal(err)
		}
		if env, err := EnvelopeInfo(path); err != nil || env.Version != 5 {
			t.Fatalf("%s: envelope %+v, %v; want v5", name, env, err)
		}
		got := &State{Model: testModel(t, testDataset(t, 0.5))}
		if err := got.Load(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameState(t, got, want)
	}
}

// toyLayout is a dense 1×2 tensor and a 3-row table of width 2.
var toyLayout = models.Layout{Rows: []int{1, 3}, Cols: []int{2, 2}, Field: []int{-1, 0}}

// toyVectors is θ_S and two θ_i over toyLayout: the table's middle row
// of θ_S and all of θ_1 are +0 and stay out of the block, and θ_2's
// first row holds only a -0.
func toyVectors() []paramvec.Vector {
	return []paramvec.Vector{
		{{0.5, -1}, {1, 2, 0, 0, 0.25, -4}},
		{{0, 0}, {0, 0, 0, 0, 0, 0}},
		{{0, 2}, {math.Copysign(0, -1), 0, 0, 0, math.Inf(1), 0}},
	}
}

// toyCheckpoint is ck holding toyVectors: θ_S and two θ_i.
func toyCheckpoint(ck Checkpoint) Checkpoint {
	v := toyVectors()
	ck.Shared, ck.Specific = v[0], v[1:]
	return ck
}

// toyBlock is toyVectors' vector block: every integer and float64
// little-endian, on any host.
const toyBlock = "0300000000000000" + // 3 vectors
	// θ_S: dense {0.5, -1}; table: 2 rows, row 0 {1, 2}, row 2 {0.25, -4}
	"000000000000e03f" + "000000000000f0bf" +
	"0200000000000000" +
	"00000000" + "000000000000f03f" + "0000000000000040" +
	"02000000" + "000000000000d03f" + "00000000000010c0" +
	// θ_1: dense {0, 0}; table: no rows
	"0000000000000000" + "0000000000000000" +
	"0000000000000000" +
	// θ_2: dense {0, 2}; table: 2 rows, row 0 {-0, 0}, row 2 {+Inf, 0}
	"0000000000000000" + "0000000000000040" +
	"0200000000000000" +
	"00000000" + "0000000000000080" + "0000000000000000" +
	"02000000" + "000000000000f07f" + "0000000000000000"

// TestVectorBlockGolden pins the bytes of a 2-domain toy state's vector
// block, so a change of format, or an assumption about the host's byte
// order, fails here on any host; and the block decodes to the vectors.
func TestVectorBlockGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.ckpt")
	if err := WriteCheckpoint(path, toyCheckpoint(Checkpoint{ModelName: "toy", Epoch: -1}), toyLayout); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[headerLen:]
	block := payload[8+binary.LittleEndian.Uint64(payload):]
	if got := hex.EncodeToString(block); got != toyBlock {
		t.Fatalf("vector block\n got %s\nwant %s", got, toyBlock)
	}
	ck, _, err := ReadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Decode(toyLayout); err != nil {
		t.Fatal(err)
	}
	want := toyVectors()
	sameBits(t, "Shared", ck.Shared, want[0])
	for d, v := range ck.Specific {
		sameBits(t, "Specific", v, want[d+1])
	}
}

// v5Payload is a v5 payload: meta's gob block, then block as the vector
// block.
func v5Payload(t testing.TB, meta any, block []byte) []byte {
	t.Helper()
	var g bytes.Buffer
	if err := gob.NewEncoder(&g).Encode(meta); err != nil {
		t.Fatal(err)
	}
	p := binary.LittleEndian.AppendUint64(nil, uint64(g.Len()))
	return append(append(p, g.Bytes()...), block...)
}

// craftedBlocks are vector blocks over toyLayout that a decoder must
// refuse: the names say what each promises.
func craftedBlocks() map[string][]byte {
	le := binary.LittleEndian
	dense := make([]byte, 16)
	return map[string][]byte{
		"2^40 vectors": le.AppendUint64(nil, 1<<40),
		"2^40 rows":    le.AppendUint64(le.AppendUint64(append(le.AppendUint64(nil, 1), dense...), 1<<40), 0),
		"rows past the file": append(le.AppendUint64(append(le.AppendUint64(nil, 1), dense...), 3),
			make([]byte, 20)...),
		"row past its table": append(le.AppendUint32(le.AppendUint64(append(le.AppendUint64(nil, 1), dense...), 1), 3),
			make([]byte, 16)...),
	}
}

// TestVectorBlockRefusesCountsBeforeAllocating: a file promising 2^40
// vectors (domains) or 2^40 rows, more rows than the file holds, or a
// row past its table, is refused as corrupt — and the promise is never
// allocated: the whole read stays under a megabyte.
func TestVectorBlockRefusesCountsBeforeAllocating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crafted.ckpt")
	for name, block := range craftedBlocks() {
		writeRawEnvelope(t, path, 5, v5Payload(t, Checkpoint{ModelName: "toy", Epoch: -1}, block))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, _, err := ReadState(path)
		if err == nil {
			err = ck.Decode(toyLayout)
		}
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s: %v, want ErrCorruptCheckpoint", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: refusing it allocated %d bytes", name, grew)
		}
	}
}

// FuzzVectorRowsDecode is the differential check of the two outputs of
// the one decoder: on any vector block over toyLayout, its stored-rows
// and its dense decode both refuse it as corrupt, or both accept it,
// the stored rows' tables hold ascending in-range rows of their width,
// and those rows scattered over +0 are the dense vectors bit for bit.
func FuzzVectorRowsDecode(f *testing.F) {
	le := binary.LittleEndian
	good, err := hex.DecodeString(toyBlock)
	if err != nil {
		f.Fatal(err)
	}
	// one is a single vector: dense {0.5, -1}, then the table's count at
	// byte 24 and rows 0 and 2 at bytes 32 and 52.
	one := append(le.AppendUint64(nil, 1), good[8:72]...)
	mutated := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), one...))
	}
	f.Add(good)
	f.Add(one)
	f.Add(mutated(func(b []byte) []byte { le.PutUint64(b[24:], 3); return b }))                          // 3 rows promised, 2 held
	f.Add(mutated(func(b []byte) []byte { le.PutUint32(b[52:], 3); return b }))                          // row 3 of a 3-row table
	f.Add(mutated(func(b []byte) []byte { le.PutUint32(b[32:], 2); le.PutUint32(b[52:], 0); return b })) // rows 2, 0
	f.Add(mutated(func(b []byte) []byte {                                                                // row 0 is {-0, -0}
		le.PutUint64(b[36:], 1<<63)
		le.PutUint64(b[44:], 1<<63)
		return b
	}))
	f.Add(mutated(func(b []byte) []byte { return append(b, 0) })) // a byte past the last vector
	f.Fuzz(func(t *testing.T, block []byte) {
		vb := vectorBlock{path: "fuzz", b: block}
		rows, rerr := vb.decode(toyLayout, false)
		dense, derr := vb.decode(toyLayout, true)
		if (rerr == nil) != (derr == nil) {
			t.Fatalf("DecodeRows: %v; Decode: %v", rerr, derr)
		}
		if rerr != nil {
			if !errors.Is(rerr, ErrCorruptCheckpoint) || !errors.Is(derr, ErrCorruptCheckpoint) {
				t.Fatalf("refusals %v, %v; want ErrCorruptCheckpoint", rerr, derr)
			}
			return
		}
		if len(rows) != len(dense) {
			t.Fatalf("%d stored-rows vectors, %d dense", len(rows), len(dense))
		}
		for k, v := range rows {
			want := make(paramvec.Vector, toyLayout.NumTensors())
			for i, rows := range toyLayout.Rows {
				cols := toyLayout.Cols[i]
				if !toyLayout.IsTable(i) {
					want[i] = v.Dense[i]
					continue
				}
				tb := v.Tables[i]
				if v.Dense[i] != nil || tb.Rows != rows || tb.Cols != cols || len(tb.Values) != len(tb.IDs)*cols {
					t.Fatalf("vector %d table %d: dense %v, table %d×%d with %d ids and %d values",
						k, i, v.Dense[i], tb.Rows, tb.Cols, len(tb.IDs), len(tb.Values))
				}
				want[i] = make([]float64, rows*cols)
				for j, r := range tb.IDs {
					if int(r) >= rows || (j > 0 && r <= tb.IDs[j-1]) {
						t.Fatalf("vector %d table %d stores rows %v of %d", k, i, tb.IDs, rows)
					}
					copy(want[i][int(r)*cols:], tb.Values[j*cols:(j+1)*cols])
				}
			}
			sameBits(t, "Decode", dense[k].Dense, want)
		}
	})
}

// tailFile saves a state of 200 domains whose θ_i each store 3.4 % of
// their table rows, a fitted tail's shape, and returns its path and a
// model of its structure.
func tailFile(tb testing.TB) (string, models.Model) {
	tb.Helper()
	cfg := synth.TaobaoOnline(200, 200*24, 73)
	cfg.FixedFeatures = false
	cfg.NumUsers, cfg.NumItems = 2000, 2000
	ds := synth.Generate(cfg)
	newModel := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 16, Hidden: []int{16}, Seed: 5})
	}
	st := &State{Model: newModel()}
	params := st.Model.Parameters()
	tables := models.EmbeddingTablesOf(st.Model)
	st.Shared = paramvec.Snapshot(params)
	rng := rand.New(rand.NewSource(73))
	for range ds.Domains {
		v := st.Shared.Zero()
		for i, p := range params {
			for r := 0; r < p.Rows; r++ {
				if _, ok := tables[i]; !ok || rng.Float64() < 0.034 {
					for j := 0; j < p.Cols; j++ {
						v[i][r*p.Cols+j] = rng.NormFloat64() / 100
					}
				}
			}
		}
		st.Specific = append(st.Specific, v)
	}
	path := filepath.Join(tb.TempDir(), "tail.ckpt")
	if err := st.Save(path); err != nil {
		tb.Fatal(err)
	}
	return path, newModel()
}

// TestLoadAllocatesPerVector: a dense load walks the vector block once,
// writing every vector's rows straight into one full-shape backing, so
// State.Load of a 200-domain file makes two allocations per vector
// (874 in all, the gob block's included), none per stored table or
// segment. The ceiling is 500 for the gob block and 3 per vector.
func TestLoadAllocatesPerVector(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	path, m := tailFile(t)
	allocs := testing.AllocsPerRun(2, func() {
		if err := (&State{Model: m}).Load(path); err != nil {
			t.Fatal(err)
		}
	})
	if ceiling := 500 + 3*201.0; allocs > ceiling {
		t.Fatalf("State.Load of 201 vectors made %.0f allocations, ceiling %.0f", allocs, ceiling)
	}
}

// BenchmarkStateLoad is the layer number of a dense load: State.Load of
// tailFile's 200-domain file. Run with:
//
//	go test ./internal/core -run '^$' -bench StateLoad -benchmem
func BenchmarkStateLoad(b *testing.B) {
	path, m := tailFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (&State{Model: m}).Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
