package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/synth"
	"mamdr/internal/telemetry"
)

func testState(t testing.TB) (*core.State, *data.Dataset, func() models.Model) {
	t.Helper()
	ds := synth.Generate(synth.Config{
		Name: "serve-test", Seed: 61, ConflictStrength: 0.5,
		Domains: []synth.DomainSpec{
			{Name: "a", Samples: 200, CTRRatio: 0.3},
			{Name: "b", Samples: 150, CTRRatio: 0.4},
		},
	})
	factory := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{8}, Seed: 5})
	}
	st := framework.MustNew("mamdr").Fit(factory(), ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*core.State)
	return st, ds, factory
}

func testServer(t *testing.T) (*Server, *data.Dataset) {
	t.Helper()
	st, ds, _ := testState(t)
	return New(st, ds), ds
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
}

func TestPredictReturnsProbabilities(t *testing.T) {
	s, _ := testServer(t)
	w := postJSON(t, s.Handler(), "/predict", PredictRequest{
		Domain: 0, Users: []int{0, 1, 2}, Items: []int{0, 1, 0},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	var resp PredictResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Probabilities) != 3 {
		t.Fatalf("got %d probabilities", len(resp.Probabilities))
	}
	for _, p := range resp.Probabilities {
		if p < 0 || p > 1 {
			t.Fatalf("probability %g out of range", p)
		}
	}
}

func TestPredictDomainSpecific(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	get := func(domain int) []float64 {
		w := postJSON(t, h, "/predict", PredictRequest{Domain: domain, Users: []int{0, 1}, Items: []int{0, 1}})
		var resp PredictResponse
		if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp.Probabilities
	}
	p0, p1 := get(0), get(1)
	same := true
	for i := range p0 {
		if p0[i] != p1[i] {
			same = false
		}
	}
	if same {
		t.Log("domains served identical scores (specific params may be near zero after 1 epoch)")
	}
}

func TestPredictValidation(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	cases := []struct {
		req  PredictRequest
		code int
	}{
		{PredictRequest{Domain: 99, Users: []int{0}, Items: []int{0}}, http.StatusNotFound},
		{PredictRequest{Domain: 0, Users: []int{0, 1}, Items: []int{0}}, http.StatusBadRequest},
		{PredictRequest{Domain: 0}, http.StatusBadRequest},
		{PredictRequest{Domain: 0, Users: []int{99999}, Items: []int{0}}, http.StatusBadRequest},
		{PredictRequest{Domain: 0, Users: []int{0}, Items: []int{99999}}, http.StatusBadRequest},
	}
	for i, c := range cases {
		if w := postJSON(t, h, "/predict", c.req); w.Code != c.code {
			t.Fatalf("case %d: code %d, want %d", i, w.Code, c.code)
		}
	}
	// Malformed JSON.
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewBufferString("{nope"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed json = %d", w.Code)
	}
	// Wrong method.
	req = httptest.NewRequest(http.MethodGet, "/predict", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict = %d", w.Code)
	}
}

func TestDomainsListAndRegister(t *testing.T) {
	s, ds := testServer(t)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/domains", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var list DomainsResponse
	if err := json.NewDecoder(w.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.NumDomains != ds.NumDomains() || len(list.Names) != 2 {
		t.Fatalf("domains = %+v", list)
	}

	// Register a new domain at runtime.
	w2 := postJSON(t, h, "/domains", nil)
	var added AddDomainResponse
	if err := json.NewDecoder(w2.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	if added.ID != 2 {
		t.Fatalf("new domain id = %d, want 2", added.ID)
	}

	// The fresh domain serves immediately with shared parameters.
	w3 := postJSON(t, h, "/predict", PredictRequest{Domain: 2, Users: []int{0}, Items: []int{0}})
	if w3.Code != http.StatusOK {
		t.Fatalf("predict on new domain = %d: %s", w3.Code, w3.Body)
	}

	// And the listing reflects it.
	req = httptest.NewRequest(http.MethodGet, "/domains", nil)
	w4 := httptest.NewRecorder()
	h.ServeHTTP(w4, req)
	var list2 DomainsResponse
	if err := json.NewDecoder(w4.Body).Decode(&list2); err != nil {
		t.Fatal(err)
	}
	if list2.NumDomains != 3 || list2.Names[2] != "runtime-2" {
		t.Fatalf("after register: %+v", list2)
	}
}

func TestPredictBodySizeLimit(t *testing.T) {
	st, ds, _ := testState(t)
	h := New(st, ds).Handler()

	// Each pair adds at least four bytes ("0," twice) to the body.
	big := PredictRequest{Domain: 0}
	for i := 0; i < maxBodyBytes/4; i++ {
		big.Users = append(big.Users, 0)
		big.Items = append(big.Items, 0)
	}
	if w := postJSON(t, h, "/predict", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", w.Code)
	}
	// A request under the limit still works.
	small := PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}}
	if w := postJSON(t, h, "/predict", small); w.Code != http.StatusOK {
		t.Fatalf("small body = %d: %s", w.Code, w.Body)
	}
}

func TestReplicaPoolServesIdenticalScores(t *testing.T) {
	st, ds, factory := testState(t)
	single := New(st, ds)
	pooled := NewWithOptions(st, ds, Options{Replicas: 4, ReplicaFactory: factory})

	req := PredictRequest{Domain: 1, Users: []int{0, 1, 2}, Items: []int{2, 1, 0}}
	get := func(h http.Handler) []float64 {
		w := postJSON(t, h, "/predict", req)
		if w.Code != http.StatusOK {
			t.Fatalf("predict = %d: %s", w.Code, w.Body)
		}
		var resp PredictResponse
		if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp.Probabilities
	}
	want := get(single.Handler())
	h := pooled.Handler()
	// Cycle through the pool several times: every replica must produce
	// bit-identical scores from the same precomposed snapshot.
	for i := 0; i < 12; i++ {
		got := get(h)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iteration %d: replica scores diverge: %v vs %v", i, got, want)
			}
		}
	}
}

// TestPublishSwapsState: without a rollout gate, Publish is the warm
// swap — the new state serves at once under the next version.
func TestPublishSwapsState(t *testing.T) {
	st, ds, factory := testState(t)
	s := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory})
	h := s.Handler()

	req := PredictRequest{Domain: 0, Users: []int{0, 1}, Items: []int{0, 1}}
	before := postJSON(t, h, "/predict", req)

	// Retrain to a different state and swap it in.
	st2 := framework.MustNew("mamdr").Fit(factory(), ds, framework.Config{Epochs: 3, BatchSize: 32, Seed: 123}).(*core.State)
	if v, canary, err := s.Publish(st2, 0, 0, nil); err != nil || canary || v != 2 {
		t.Fatalf("Publish = (v%d, canary %v, %v), want an immediate v2", v, canary, err)
	}
	after := postJSON(t, h, "/predict", req)
	if after.Code != http.StatusOK {
		t.Fatalf("predict after swap = %d: %s", after.Code, after.Body)
	}
	if before.Body.String() == after.Body.String() {
		t.Fatal("swap did not change served scores")
	}

	// A structurally different state is rejected.
	other := framework.MustNew("mamdr").Fit(
		models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 8, Hidden: []int{8}, Seed: 5}),
		ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*core.State)
	if _, _, err := s.Publish(other, 0, 0, nil); err == nil {
		t.Fatal("mismatched state accepted")
	}
}

func TestAddDomainKeepsOldSnapshotsImmutable(t *testing.T) {
	st, ds, _ := testState(t)
	s := New(st, ds)
	h := s.Handler()

	req := PredictRequest{Domain: 0, Users: []int{0, 1}, Items: []int{0, 1}}
	before := postJSON(t, h, "/predict", req)
	for i := 0; i < 3; i++ {
		if id, err := s.AddDomain(); err != nil || id != ds.NumDomains()+i {
			t.Fatalf("AddDomain = %d, %v, want %d", id, err, ds.NumDomains()+i)
		}
	}
	after := postJSON(t, h, "/predict", req)
	if before.Body.String() != after.Body.String() {
		t.Fatal("registering domains changed existing domains' scores")
	}
}

// TestPoolTimeoutSetsRetryAfter holds the only replica and asserts the
// 503 of a request that times out behind it carries a Retry-After header
// and increments the pool-timeout counter.
func TestPoolTimeoutSetsRetryAfter(t *testing.T) {
	st, ds, _ := testState(t)
	reg := telemetry.New()
	s := NewWithOptions(st, ds, Options{
		Metrics: reg, Faults: holdFirstForward(300 * time.Millisecond),
	})
	h := s.Handler()
	held := holdSlot(t, s, h)

	w := predictWithin(t, h, 5*time.Millisecond, PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}})
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held predict = %d", code)
	}
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict with exhausted pool = %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if w.Header().Get("X-Request-ID") == "" {
		t.Fatal("503 response missing X-Request-ID")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"mamdr_serve_pool_timeouts_total 1",
		`mamdr_serve_requests_total{code="503"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsEndpoint drives instrumented traffic and scrapes /metrics
// on the serving handler itself.
func TestMetricsEndpoint(t *testing.T) {
	st, ds, _ := testState(t)
	s := NewWithOptions(st, ds, Options{Metrics: telemetry.New()})
	h := s.Handler()

	for i := 0; i < 3; i++ {
		if w := postJSON(t, h, "/predict", PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}}); w.Code != http.StatusOK {
			t.Fatalf("predict = %d", w.Code)
		}
	}
	postJSON(t, h, "/predict", PredictRequest{Domain: 99, Users: []int{0}, Items: []int{0}})

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	out := w.Body.String()
	for _, want := range []string{
		`mamdr_serve_request_seconds_bucket{domain="a",le="`,
		`mamdr_serve_request_seconds_count{domain="a"} 3`,
		`mamdr_serve_requests_total{code="200"} 3`,
		`mamdr_serve_requests_total{code="404"} 1`,
		"mamdr_serve_batch_wait_seconds_count 3",
		"mamdr_serve_replica_pool_size 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestAccessLogEmitsRequestIDs checks one structured line per request
// with stable request-ID propagation.
func TestAccessLogEmitsRequestIDs(t *testing.T) {
	st, ds, _ := testState(t)
	var logBuf bytes.Buffer
	s := NewWithOptions(st, ds, Options{
		AccessLog: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	h := s.Handler()

	w := postJSON(t, h, "/predict", PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}})
	rid := w.Header().Get("X-Request-ID")
	if rid == "" {
		t.Fatal("response missing X-Request-ID")
	}

	// An inbound ID is honored and echoed.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-ID", "upstream-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "upstream-42" {
		t.Fatalf("inbound request ID not propagated: %q", got)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2", len(lines))
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if entry["request_id"] != rid || entry["path"] != "/predict" || entry["status"] != float64(200) {
		t.Fatalf("log entry = %v", entry)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["request_id"] != "upstream-42" {
		t.Fatalf("second entry request_id = %v", second["request_id"])
	}
}

func TestConcurrentPredicts(t *testing.T) {
	// The queue holds every client: a shed (503) would be the admission
	// gate working, not a failed prediction.
	st, ds, _ := testState(t)
	s := NewWithOptions(st, ds, Options{MaxQueue: 8})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(domain int) {
			defer wg.Done()
			body, _ := json.Marshal(PredictRequest{Domain: domain % 2, Users: []int{0, 1}, Items: []int{1, 0}})
			for i := 0; i < 20; i++ {
				resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- nil
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if _, bad := <-errs; bad {
		t.Fatal("concurrent predicts failed")
	}
}

func TestReadyzReflectsDraining(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	get := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", w.Code)
	}

	s.SetDraining(true)
	w := get()
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("drain reason missing: %q", w.Body.String())
	}
	// /healthz stays green during a drain: the process is alive, it just
	// wants no new traffic.
	reqH := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	wh := httptest.NewRecorder()
	h.ServeHTTP(wh, reqH)
	if wh.Code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", wh.Code)
	}

	s.SetDraining(false)
	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("readyz after drain cancelled = %d, want 200", w.Code)
	}
}

func TestReadyzReportsPoolSaturation(t *testing.T) {
	st, ds, factory := testState(t)
	s := NewWithOptions(st, ds, Options{Replicas: 1, ReplicaFactory: factory, Faults: holdFirstForward(300 * time.Millisecond)})
	h := s.Handler()
	get := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("readyz with a free replica = %d, want 200", w.Code)
	}

	held := holdSlot(t, s, h) // all replicas busy
	w := get()
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with saturated pool = %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "saturated") {
		t.Fatalf("saturation reason missing: %q", w.Body.String())
	}

	if code := <-held; code != http.StatusOK {
		t.Fatalf("held predict = %d", code)
	}
	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("readyz after replica returned = %d, want 200", w.Code)
	}
}

// TestMetricsSnapshotEndpoint pins the federation surface: a serve
// process with metrics enabled exports a valid versioned snapshot at
// /metrics/snapshot, tagged role=serve.
func TestMetricsSnapshotEndpoint(t *testing.T) {
	st, ds, _ := testState(t)
	reg := telemetry.New()
	s := NewWithOptions(st, ds, Options{Metrics: reg})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/metrics/snapshot", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("snapshot endpoint = %d, want 200", w.Code)
	}
	var snap telemetry.RegistrySnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.Role != "serve" {
		t.Fatalf("snapshot role = %q, want serve", snap.Role)
	}
	found := false
	for _, f := range snap.Families {
		if f.Name == "mamdr_serve_requests_total" {
			found = true
		}
	}
	if !found {
		t.Fatal("snapshot missing the request counter family")
	}
}
