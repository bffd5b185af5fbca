package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mamdr/internal/trace"
)

// attrMap flattens a span's attributes for assertions.
func attrMap(s *trace.Span) map[string]any {
	out := map[string]any{}
	for _, a := range s.Attrs() {
		out[a.Key] = a.Value
	}
	return out
}

// TestRequestTracing verifies one prediction produces a serve.request
// root span keyed to the response's X-Request-ID, with pool_wait and
// predict spans parented to it in the same trace.
func TestRequestTracing(t *testing.T) {
	st, ds, _ := testState(t)
	tracer := trace.New(trace.Options{Sample: 1, FlightSize: -1})
	spans := trace.NewCollector(0)
	tracer.AddSink(spans)
	s := NewWithOptions(st, ds, Options{Tracer: tracer})

	w := postJSON(t, s.Handler(), "/predict",
		PredictRequest{Domain: 0, Users: []int{0, 1}, Items: []int{1, 0}})
	if w.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", w.Code, w.Body.String())
	}
	rid := w.Header().Get("X-Request-ID")
	if rid == "" {
		t.Fatal("no X-Request-ID header")
	}

	var root *trace.Span
	byName := map[string]*trace.Span{}
	for _, sp := range spans.Spans() {
		byName[sp.Name] = sp
		if sp.Name == "serve.request" {
			root = sp
		}
	}
	if root == nil {
		t.Fatalf("no serve.request span; got %v", names(spans.Spans()))
	}
	attrs := attrMap(root)
	if attrs["rid"] != rid {
		t.Fatalf("root span rid = %v, response header = %q", attrs["rid"], rid)
	}
	if attrs["status"] != http.StatusOK {
		t.Fatalf("root span status = %v", attrs["status"])
	}
	for _, child := range []string{"serve.pool_wait", "serve.predict"} {
		sp, ok := byName[child]
		if !ok {
			t.Fatalf("missing %s span; got %v", child, names(spans.Spans()))
		}
		if sp.ParentID != root.ID || sp.TraceID != root.TraceID {
			t.Fatalf("%s not parented to serve.request root", child)
		}
	}
}

// TestBatchedRequestTracing: a coalesced request is as legible as an
// inline one — serve.request ⊃ serve.batch_wait (submit → result), and
// the flush that carried it hangs its pool_wait and predict spans under
// that wait span, in the request's own trace.
func TestBatchedRequestTracing(t *testing.T) {
	st, ds, _ := testState(t)
	tracer := trace.New(trace.Options{Sample: 1, FlightSize: -1})
	spans := trace.NewCollector(0)
	tracer.AddSink(spans)
	s := NewWithOptions(st, ds, Options{Tracer: tracer, BatchMax: 64})
	defer s.Close()

	w := postJSON(t, s.Handler(), "/predict",
		PredictRequest{Domain: 0, Users: []int{0, 1}, Items: []int{1, 0}})
	if w.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", w.Code, w.Body.String())
	}
	byName := map[string]*trace.Span{}
	for _, sp := range spans.Spans() {
		byName[sp.Name] = sp
	}
	root, wait, predict := byName["serve.request"], byName["serve.batch_wait"], byName["serve.predict"]
	if root == nil || wait == nil || predict == nil || byName["serve.pool_wait"] == nil {
		t.Fatalf("want serve.request, batch_wait, pool_wait and predict spans; got %v", names(spans.Spans()))
	}
	if wait.ParentID != root.ID || wait.TraceID != root.TraceID {
		t.Fatal("serve.batch_wait not parented to serve.request")
	}
	for _, name := range []string{"serve.pool_wait", "serve.predict"} {
		if sp := byName[name]; sp.ParentID != wait.ID || sp.TraceID != root.TraceID {
			t.Fatalf("%s not under the oldest rider's serve.batch_wait", name)
		}
	}
	if predict.Start().Before(wait.Start()) || predict.Start().Add(predict.Duration()).After(wait.Start().Add(wait.Duration())) {
		t.Fatal("serve.predict falls outside the serve.batch_wait that parents it")
	}
	if attrs := attrMap(predict); attrs["requests"] != 1 || attrs["pairs"] != 2 || attrs["domain"] == nil || attrs["snapshot_version"] != uint64(1) {
		t.Fatalf("serve.predict attrs = %v, want requests 1, pairs 2, a domain and snapshot_version 1", attrs)
	}
}

// TestPoolSaturationDumpsFlightRecorder verifies a replica-pool timeout
// raises exactly one pool_saturation anomaly into the flight recorder.
func TestPoolSaturationDumpsFlightRecorder(t *testing.T) {
	st, ds, _ := testState(t)
	tracer := trace.New(trace.Options{
		Sample: 1, FlightSize: 64, FlightPath: t.TempDir() + "/flight",
	})
	s := NewWithOptions(st, ds, Options{
		Tracer:         tracer,
		RequestTimeout: 30 * time.Millisecond,
	})

	// Drain the single-replica pool so every prediction times out.
	rep := <-s.pool
	defer func() { s.pool <- rep }()

	for i := 0; i < 3; i++ {
		w := postJSON(t, s.Handler(), "/predict",
			PredictRequest{Domain: 0, Users: []int{0}, Items: []int{1}})
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: code %d, want 503", i, w.Code)
		}
	}
	dumps := tracer.Flight().Dumps()
	if len(dumps) != 1 {
		t.Fatalf("flight dumps = %d, want exactly 1", len(dumps))
	}
	if dumps[0].Kind != "pool_saturation" {
		t.Fatalf("dump kind = %q", dumps[0].Kind)
	}
}

// TestDebugTraceEndpoint verifies capture-on-demand is mounted when a
// tracer is configured.
func TestDebugTraceEndpoint(t *testing.T) {
	st, ds, _ := testState(t)
	tracer := trace.New(trace.Options{Sample: 1, FlightSize: -1})
	s := NewWithOptions(st, ds, Options{Tracer: tracer})

	req := httptest.NewRequest(http.MethodGet, "/debug/trace?sec=0", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
		t.Fatalf("/debug/trace: %d %s", w.Code, w.Body.String())
	}
}

func names(spans []*trace.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
