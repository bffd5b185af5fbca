// Tests for θ_i served as its stored rows: a file publish serves every
// row bit for bit as the dense composition would, float and int8, and
// costs the rows the file stores.

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/quant"
	"mamdr/internal/synth"
)

var negZero = math.Copysign(0, -1)

// signedZeroState is st cloned with a -0 in θ_S's tables where the sum
// must keep it and where it must not: every table's row 1 is -0 in θ_S
// and in θ_0 (stored, so θ_S + θ_0 is -0 there), and row 2 is -0 in θ_S
// and +0 in every θ_i (not stored, so the sum is +0).
func signedZeroState(st *core.State, model models.Model) *core.State {
	out := cloneState(st, model)
	params := model.Parameters()
	for p := range models.EmbeddingTablesOf(model) {
		cols := params[p].Cols
		for j := 0; j < cols; j++ {
			out.Shared[p][cols+j], out.Shared[p][2*cols+j] = negZero, negZero
			out.Specific[0][p][cols+j] = negZero
			for _, v := range out.Specific {
				v[p][2*cols+j] = 0
			}
		}
	}
	return out
}

// requireComposedRows checks every domain's composition in sn against
// the dense θ_S + θ_d of ref bit for bit: each dense segment, and each
// table row — under int8, the row as quant.Quantize of the whole
// composed table decodes it.
func requireComposedRows(t *testing.T, what string, sn *snapshot, ref *core.State, int8 bool) {
	t.Helper()
	params := ref.Model.Parameters()
	for d := range ref.Specific {
		composed := ref.ComposedFor(d)
		c := sn.comp(d)
		for i, seg := range c.Dense {
			for j := range seg {
				if math.Float64bits(seg[j]) != math.Float64bits(composed[i][j]) {
					t.Fatalf("%s: domain %d dense segment %d[%d] = %v, want %v", what, d, i, j, seg[j], composed[i][j])
				}
			}
		}
		for p := range sn.layout.tables {
			rows, cols := params[p].Rows, params[p].Cols
			want := composed[p]
			if int8 {
				want = quant.Quantize(want, rows, cols).Dequantize()
			}
			got := make([]float64, cols)
			for r := 0; r < rows; r++ {
				c.Rows[p].Row(r, got)
				for j, x := range got {
					if math.Float64bits(x) != math.Float64bits(want[r*cols+j]) {
						t.Fatalf("%s: domain %d table %d row %d[%d] = %#x, want %#x",
							what, d, p, r, j, math.Float64bits(x), math.Float64bits(want[r*cols+j]))
					}
				}
			}
		}
	}
}

// TestFilePublishServesComposedRows: after POST /admin/publish, a
// snapshot that holds each θ_i as the rows the file stores serves every
// row of every domain as the dense θ_S + θ_d — a -0 row θ_d stores keeps
// θ_S's -0, an unstored row is θ_S + (+0) — and under int8 as
// quant.Quantize of the whole composed table, both bit for bit; the
// scores equal core.State.Predict on the same file loaded densely (float)
// and restore-then-forward of the quantized tables (int8). A state
// handed in memory composes the same int8 rows, and a domain registered
// after the publish serves θ_S + 0.
func TestFilePublishServesComposedRows(t *testing.T) {
	st, ds, factory := testState(t)
	pub := signedZeroState(st, factory())
	path := filepath.Join(t.TempDir(), "signed-zero.ckpt")
	if err := pub.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded := &core.State{Model: factory()}
	if err := loaded.Load(path); err != nil {
		t.Fatal(err)
	}
	for p := range models.EmbeddingTablesOf(loaded.Model) {
		cols := loaded.Model.Parameters()[p].Cols
		composed := loaded.ComposedFor(0)[p]
		if math.Float64bits(composed[cols]) != math.Float64bits(negZero) || math.Float64bits(composed[2*cols]) != 0 {
			t.Fatalf("table %d: the fixture's composed rows 1 and 2 start %v and %v, want -0 and +0", p, composed[cols], composed[2*cols])
		}
	}
	private := factory()

	for _, mode := range []string{"off", "int8"} {
		t.Run(mode, func(t *testing.T) {
			int8 := mode == "int8"
			s := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory, SnapshotQuant: mode})
			defer s.Close()
			h := s.Handler()
			if w := postJSON(t, h, "/admin/publish", PublishRequest{Path: path}); w.Code != http.StatusOK {
				t.Fatalf("publish = %d: %s", w.Code, w.Body)
			}
			sn := s.view.Load().incumbent
			for d, tables := range sn.tables {
				for p := range s.layout.tables {
					if sn.specific[d][p] != nil || tables == nil || tables[p].Cols == 0 {
						t.Fatalf("domain %d table %d is held densely after a file publish", d, p)
					}
				}
			}
			requireComposedRows(t, "file publish", sn, loaded, int8)

			for d := 0; d < ds.NumDomains(); d++ {
				test := ds.Domains[d].Test
				req := PredictRequest{Domain: d}
				for _, in := range test[:min(len(test), 16)] {
					req.Users, req.Items = append(req.Users, in.User), append(req.Items, in.Item)
				}
				var got PredictResponse
				if err := json.NewDecoder(postJSON(t, h, "/predict", req).Body).Decode(&got); err != nil {
					t.Fatal(err)
				}
				b := ds.MakeBatch(d, test[:len(req.Users)])
				want := loaded.Predict(b)
				if int8 {
					want = referenceScores(private, int8RoundTrip(private, loaded.ComposedFor(d)), b)
				}
				for j := range want {
					if math.Float64bits(got.Probabilities[j]) != math.Float64bits(want[j]) {
						t.Fatalf("domain %d pair %d: served %v, want %v", d, j, got.Probabilities[j], want[j])
					}
				}
			}

			id, err := s.AddDomain()
			if err != nil {
				t.Fatal(err)
			}
			n := len(loaded.Specific)
			registered := &core.State{Model: loaded.Model, Shared: loaded.Shared,
				Specific: append(loaded.Specific[:n:n], loaded.Shared.Zero())}
			if id != n {
				t.Fatalf("registered domain %d, want %d", id, n)
			}
			requireComposedRows(t, "registered domain", s.view.Load().incumbent, registered, int8)

			if int8 {
				mem := NewWithOptions(pub, ds, Options{SnapshotQuant: "int8"})
				defer mem.Close()
				requireComposedRows(t, "in-memory state", mem.view.Load().incumbent, pub, true)
			}
		})
	}
}

// storedRowsState is a 200-domain state with learned 16-wide user and
// item embeddings whose θ_i are shaped like a fit's: small dense values
// and 3.4 % of table rows stored. Eight distinct θ_i repeat across the
// domains, so the test holds eight dense vectors while the file holds
// 200 θ_i.
func storedRowsState(tb testing.TB) (*core.State, *data.Dataset, func() models.Model) {
	tb.Helper()
	cfg := synth.TaobaoOnline(200, 200*24, 73)
	cfg.FixedFeatures = false
	cfg.NumUsers, cfg.NumItems = 2000, 2000
	ds := synth.Generate(cfg)
	factory := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 16, Hidden: []int{16}, Seed: 5})
	}
	m := factory()
	params := m.Parameters()
	tables := models.EmbeddingTablesOf(m)
	rng := rand.New(rand.NewSource(73))
	distinct := make([]paramvec.Vector, 8)
	for k := range distinct {
		v := paramvec.Snapshot(params).Zero()
		for i, p := range params {
			if _, ok := tables[i]; !ok {
				for j := range v[i] {
					v[i][j] = rng.NormFloat64() / 100
				}
				continue
			}
			for r := 0; r < p.Rows; r++ {
				if rng.Float64() < 0.034 {
					for j := 0; j < p.Cols; j++ {
						v[i][r*p.Cols+j] = rng.NormFloat64() / 100
					}
				}
			}
		}
		distinct[k] = v
	}
	st := &core.State{Model: m, Shared: paramvec.Snapshot(params), Specific: make([]paramvec.Vector, ds.NumDomains())}
	for d := range st.Specific {
		st.Specific[d] = distinct[d%len(distinct)]
	}
	return st, ds, factory
}

// bootState is st's θ_S with every θ_i one shared zero vector: a server
// to publish onto that holds no dense θ_i of its own.
func bootState(st *core.State) *core.State {
	zero := st.Shared.Zero()
	boot := &core.State{Model: st.Model, Shared: st.Shared, Specific: make([]paramvec.Vector, len(st.Specific))}
	for d := range boot.Specific {
		boot.Specific[d] = zero
	}
	return boot
}

// TestFilePublishAllocatesStoredRows: a file publish of a 200-domain
// state, then one int8 request per domain — each the domain's first
// touch — allocates at most 4× the file's bytes (3.0× on amd64). A
// publish that decodes every θ_i at full shape and first touches that
// sum and quantize whole tables allocate 36× at this shape.
func TestFilePublishAllocatesStoredRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	st, ds, factory := storedRowsState(t)
	path := filepath.Join(t.TempDir(), "stored-rows.ckpt")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithOptions(bootState(st), ds, Options{ReplicaFactory: factory, Replicas: 2, SnapshotQuant: "int8"})
	defer s.Close()
	h := s.Handler()
	bodies := make([][]byte, ds.NumDomains())
	for d := range bodies {
		bodies[d], _ = json.Marshal(PredictRequest{Domain: d, Users: []int{d % ds.NumUsers}, Items: []int{(3 * d) % ds.NumItems}})
	}
	publish, _ := json.Marshal(PublishRequest{Path: path})

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/publish", bytes.NewReader(publish)))
	if w.Code != http.StatusOK {
		t.Fatalf("publish = %d: %s", w.Code, w.Body)
	}
	for d, body := range bodies {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("domain %d: %d %s", d, w.Code, w.Body)
		}
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(fi.Size())
	t.Logf("file %.1f MB; publish + %d first touches allocated %.2f× its bytes", float64(fi.Size())/1e6, len(bodies), ratio)
	if ratio > 4 {
		t.Fatalf("publish + first touches allocated %.2f× the file's bytes, ceiling 4×", ratio)
	}
}

// TestBootIsAFilePublish: a server booted with Open from
// storedRowsState's file serves what POST /admin/publish of the same
// file serves. Each domain's v1 and v2 scores are bit-identical, as
// float and as int8 snapshots, and as float they equal the in-memory
// state's Predict. The read, Open and one first request per domain
// allocate at most 4× the file's bytes, the file publish's ceiling
// (TestFilePublishAllocatesStoredRows): a boot that decodes every θ_i
// at full shape, installs it into a core.State and serves that
// allocates 17.9× at this shape.
func TestBootIsAFilePublish(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	st, ds, factory := storedRowsState(t)
	path := saveWithDigest(t, st)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, ds.NumDomains())
	for d := range bodies {
		bodies[d], _ = json.Marshal(PredictRequest{Domain: d, Users: []int{d % ds.NumUsers}, Items: []int{(3 * d) % ds.NumItems}})
	}
	scores := func(t *testing.T, h http.Handler) [][]float64 {
		out := make([][]float64, len(bodies))
		for d, body := range bodies {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
			var resp PredictResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil {
				t.Fatalf("domain %d: %d %s", d, w.Code, w.Body)
			}
			out[d] = resp.Probabilities
		}
		return out
	}
	for _, mode := range []string{"off", "int8"} {
		t.Run(mode, func(t *testing.T) {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, _ := openFile(t, path, ds, Options{ReplicaFactory: factory, Replicas: 2, SnapshotQuant: mode})
			defer s.Close()
			h := s.Handler()
			booted := scores(t, h)
			runtime.ReadMemStats(&after)
			ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(fi.Size())
			t.Logf("file %.1f MB; read, Open + %d first touches allocated %.2f× its bytes", float64(fi.Size())/1e6, len(bodies), ratio)
			if ratio > 4 {
				t.Fatalf("read, Open + first touches allocated %.2f× the file's bytes, ceiling 4×", ratio)
			}

			if w := postJSON(t, h, "/admin/publish", PublishRequest{Path: path}); w.Code != http.StatusOK {
				t.Fatalf("publish = %d: %s", w.Code, w.Body)
			}
			if inc, _ := s.Versions(); inc != 2 {
				t.Fatalf("incumbent after the publish is v%d, want v2", inc)
			}
			published := scores(t, h)
			for d := range bodies {
				want := published[d]
				if mode == "off" {
					want = st.Predict(ds.MakeBatch(d, []data.Interaction{{User: d % ds.NumUsers, Item: (3 * d) % ds.NumItems}}))
				}
				for j, p := range booted[d] {
					if math.Float64bits(p) != math.Float64bits(published[d][j]) || math.Float64bits(p) != math.Float64bits(want[j]) {
						t.Fatalf("domain %d pair %d: booted v1 %v, published v2 %v, want %v", d, j, p, published[d][j], want[j])
					}
				}
			}
		})
	}
}

// BenchmarkFilePublish is the layer number of a file publish: POST
// /admin/publish of storedRowsState's 200-domain file, then the first
// composition of every domain, as float and as int8 snapshots. Run with:
//
//	go test ./internal/serve -run '^$' -bench FilePublish -benchtime 20x
func BenchmarkFilePublish(b *testing.B) {
	st, ds, factory := storedRowsState(b)
	path := filepath.Join(b.TempDir(), "stored-rows.ckpt")
	if err := st.Save(path); err != nil {
		b.Fatal(err)
	}
	publish, _ := json.Marshal(PublishRequest{Path: path})
	for _, mode := range []string{"off", "int8"} {
		b.Run(fmt.Sprintf("quant=%s", mode), func(b *testing.B) {
			s := NewWithOptions(bootState(st), ds, Options{ReplicaFactory: factory, Replicas: 1, SnapshotQuant: mode})
			defer s.Close()
			h := s.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/publish", bytes.NewReader(publish)))
				if w.Code != http.StatusOK {
					b.Fatalf("publish = %d: %s", w.Code, w.Body)
				}
				sn := s.view.Load().incumbent
				for d := 0; d < sn.numDomains(); d++ {
					sn.comp(d)
				}
			}
		})
	}
}
