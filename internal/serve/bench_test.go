package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/quality"
	"mamdr/internal/quant"
	"mamdr/internal/synth"
	"mamdr/internal/telemetry"
)

// legacyServer replicates the seed serving path this package shipped
// with: one global mutex around every request and a full parameter
// composition (clone + axpy) plus a snapshot/restore pair per request
// via core.State.Predict. It exists only as the benchmark baseline.
type legacyServer struct {
	mu      sync.Mutex
	state   *core.State
	dataset *data.Dataset
}

func (s *legacyServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ins := make([]data.Interaction, len(req.Users))
	for i := range req.Users {
		ins[i] = data.Interaction{User: req.Users[i], Item: req.Items[i]}
	}
	probs := s.state.Predict(s.dataset.MakeBatch(req.Domain, ins))
	json.NewEncoder(w).Encode(PredictResponse{Probabilities: probs})
}

func benchState(b testing.TB) (*core.State, *data.Dataset, func() models.Model) {
	b.Helper()
	ds := synth.Generate(synth.Config{
		Name: "serve-bench", Seed: 71, ConflictStrength: 0.5,
		Domains: []synth.DomainSpec{
			{Name: "a", Samples: 600, CTRRatio: 0.3},
			{Name: "b", Samples: 400, CTRRatio: 0.4},
			{Name: "c", Samples: 300, CTRRatio: 0.35},
		},
	})
	factory := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 32, Hidden: []int{64, 32}, Seed: 5})
	}
	st := framework.MustNew("mamdr").Fit(factory(), ds, framework.Config{
		Epochs: 1, BatchSize: 64, Seed: 9,
	}).(*core.State)
	return st, ds, factory
}

// BenchmarkServeThroughput compares the seed global-mutex serving path
// against the replica-pool server at 8 concurrent clients. Run with:
//
//	go test ./internal/serve -bench ServeThroughput -benchtime 2s
func BenchmarkServeThroughput(b *testing.B) {
	st, ds, factory := benchState(b)
	body, err := json.Marshal(PredictRequest{Domain: 1, Users: []int{0, 1, 2, 3}, Items: []int{1, 0, 2, 3}})
	if err != nil {
		b.Fatal(err)
	}

	drive := func(b *testing.B, h http.Handler) {
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("predict = %d: %s", w.Code, w.Body)
				}
			}
		})
	}

	b.Run("seed-global-mutex", func(b *testing.B) {
		legacy := &legacyServer{state: st, dataset: ds}
		mux := http.NewServeMux()
		mux.HandleFunc("/predict", legacy.handlePredict)
		drive(b, mux)
	})

	b.Run("replica-pool", func(b *testing.B) {
		srv := NewWithOptions(st, ds, Options{Replicas: 8, ReplicaFactory: factory})
		drive(b, srv.Handler())
	})
}

// BenchmarkTelemetryOverhead measures the serving request path bare
// versus fully instrumented (request-ID middleware, status-code
// counters, flush and per-domain latency histograms). The
// instrumented/bare ratio is the telemetry tax; the
// acceptance budget is <5%. Run with:
//
//	go test ./internal/serve -bench TelemetryOverhead -benchtime 2s
func BenchmarkTelemetryOverhead(b *testing.B) {
	st, ds, factory := benchState(b)
	body, err := json.Marshal(PredictRequest{Domain: 1, Users: []int{0, 1, 2, 3}, Items: []int{1, 0, 2, 3}})
	if err != nil {
		b.Fatal(err)
	}

	drive := func(b *testing.B, h http.Handler) {
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("predict = %d: %s", w.Code, w.Body)
				}
			}
		})
	}

	b.Run("bare", func(b *testing.B) {
		srv := NewWithOptions(st, ds, Options{Replicas: 8, ReplicaFactory: factory})
		drive(b, srv.Handler())
	})

	b.Run("instrumented", func(b *testing.B) {
		srv := NewWithOptions(st, ds, Options{
			Replicas: 8, ReplicaFactory: factory, Metrics: telemetry.New(),
		})
		drive(b, srv.Handler())
	})

	b.Run("instrumented+quality", func(b *testing.B) {
		reg := telemetry.New()
		srv := NewWithOptions(st, ds, Options{
			Replicas: 8, ReplicaFactory: factory, Metrics: reg,
			Quality: quality.NewTracker(reg, quality.Options{Checks: true}),
		})
		drive(b, srv.Handler())
	})
}

// BenchmarkServeConcurrent is the micro-benchmark of the batched
// serving path: the same 64-way workload with coalescing off (one
// forward per request) and on (requests that queue behind the two busy
// replicas share forwards), then both again with only as many clients
// as replicas, where nothing ever queues and batching must cost nothing.
// Run with:
//
//	go test ./internal/serve -bench ServeConcurrent -benchtime 300ms
func BenchmarkServeConcurrent(b *testing.B) {
	st, ds, factory := benchState(b)
	body, err := json.Marshal(PredictRequest{Domain: 0, Users: []int{0}, Items: []int{1}})
	if err != nil {
		b.Fatal(err)
	}
	// RunParallel starts parallelism × GOMAXPROCS clients.
	drive := func(b *testing.B, h http.Handler, parallelism int) {
		b.SetParallelism(parallelism)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("predict = %d: %s", w.Code, w.Body)
				}
			}
		})
	}
	b.Run("batch-off", func(b *testing.B) {
		srv := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory, MaxQueue: 4096})
		drive(b, srv.Handler(), 32)
	})
	b.Run("batch-on", func(b *testing.B) {
		srv := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory, MaxQueue: 4096, BatchMax: 64})
		defer srv.Close()
		drive(b, srv.Handler(), 32)
	})
	// As many clients as replicas: the like-for-like pair.
	for _, batchMax := range []int{0, 64} {
		b.Run(map[int]string{0: "batch-off", 64: "batch-on"}[batchMax]+"/undersubscribed", func(b *testing.B) {
			srv := NewWithOptions(st, ds, Options{Replicas: runtime.GOMAXPROCS(0), ReplicaFactory: factory, BatchMax: batchMax})
			defer srv.Close()
			drive(b, srv.Handler(), 1)
		})
	}
}

// BenchmarkQuantLookup is the micro-benchmark of the quantized lookup
// path: quant.Table.Row, the row source of an int8 composition,
// decoding one row into the gather buffer at the embedding widths
// serving runs. Run with:
//
//	go test ./internal/serve -bench QuantLookup -benchtime 300ms
func BenchmarkQuantLookup(b *testing.B) {
	const rows = 4096
	for _, cols := range []int{16, 32} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			data := make([]float64, rows*cols)
			for i := range data {
				data[i] = float64(i%97)/97 - 0.5
			}
			var src autograd.RowSource = quant.Quantize(data, rows, cols)
			dst := make([]float64, cols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Row(i%rows, dst)
			}
		})
	}
}

// BenchmarkComposeSnapshot measures the publish path's composition
// cost with -benchmem. "publish" is what composeState now does: wrap
// references, defer all composition (the lazy scheme). "eager" forces
// every domain's composition inside the loop — the float traffic the
// seed's publish path paid up front. The allocs/op gap is the measured
// satellite: publish-time work no longer scales with the domain zoo.
func BenchmarkComposeSnapshot(b *testing.B) {
	st, ds, factory := benchState(b)
	srv := NewWithOptions(st, ds, Options{Replicas: 1, ReplicaFactory: factory})
	b.Run("publish", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv.composeState(st)
		}
	})
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sn := srv.composeState(st)
			for d := 0; d < sn.numDomains(); d++ {
				sn.comp(d)
			}
		}
	})
}

// BenchmarkPredictRank is one ranking request, one user × 256 candidates
// on rankState's tail-shaped state: "handler" through Handler() with
// metrics, quality and tracing on, as mamdr-serve runs by default, the
// request and recorder included; then the codec's share of it, each half
// beside the encoding/json call it replaces — the body decoded
// (decodePredict, json.Decoder) and the 256 scores encoded
// (appendPredictResponse, json.Encoder). The benchmark harness's
// serve.decode_us and serve.encode_us time encoding/json itself and do
// not see the codec. Run with:
//
//	go test ./internal/serve -run '^$' -bench PredictRank -benchtime 2000x
func BenchmarkPredictRank(b *testing.B) {
	st, ds, factory := rankState(b)
	h := observedHandler(st, ds, factory)
	body := rankBody(b, 0, 7, 256)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Probabilities) != 256 {
		b.Fatalf("predict = %d %v: %.80s", w.Code, err, w.Body)
	}
	b.Run("handler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				b.Fatalf("predict = %d: %s", w.Code, w.Body)
			}
		}
	})
	s := &Server{}
	decoders := map[string]func(w http.ResponseWriter, r *http.Request, req *PredictRequest) bool{
		"decode/scan": s.decodePredict,
		"decode/json": func(w http.ResponseWriter, r *http.Request, req *PredictRequest) bool { return s.decodeBody(w, r, req) },
	}
	for _, name := range []string{"decode/scan", "decode/json"} {
		decode := decoders[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			r := httptest.NewRequest(http.MethodPost, "/predict", nil)
			for i := 0; i < b.N; i++ {
				r.Body = io.NopCloser(bytes.NewReader(body))
				var req PredictRequest
				if !decode(w, r, &req) || len(req.Items) != 256 {
					b.Fatal("decode failed")
				}
			}
		})
	}
	b.Run("encode/append", func(b *testing.B) {
		b.ReportAllocs()
		var out []byte
		for i := 0; i < b.N; i++ {
			out, _ = appendPredictResponse(out[:0], resp)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		var out bytes.Buffer
		for i := 0; i < b.N; i++ {
			out.Reset()
			json.NewEncoder(&out).Encode(resp)
		}
	})
}
