package serve

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mamdr/internal/quality"
	"mamdr/internal/telemetry"
)

// qualityServer builds a server with the quality tracker wired in.
func qualityServer(t *testing.T) (*Server, *telemetry.Registry, *quality.Tracker) {
	t.Helper()
	st, ds, factory := testState(t)
	reg := telemetry.New()
	tr := quality.NewTracker(reg, quality.Options{Checks: true})
	srv := NewWithOptions(st, ds, Options{
		Replicas: 2, ReplicaFactory: factory, Metrics: reg, Quality: tr,
	})
	return srv, reg, tr
}

func seriesValue(t *testing.T, reg *telemetry.Registry, name string, labels ...telemetry.Label) (float64, bool) {
	t.Helper()
	for _, f := range reg.Snapshot().Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if len(s.Labels) != len(labels) {
				continue
			}
			all := true
			for _, want := range labels {
				found := false
				for _, have := range s.Labels {
					if have == want {
						found = true
					}
				}
				all = all && found
			}
			if all {
				return s.Value, true
			}
		}
	}
	return 0, false
}

func TestFeedbackJoinFlow(t *testing.T) {
	srv, reg, _ := qualityServer(t)
	h := srv.Handler()

	w := postJSON(t, h, "/predict", PredictRequest{Domain: 0, Users: []int{0, 1, 2}, Items: []int{0, 1, 2}})
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID == "" {
		t.Fatal("quality-enabled predict response carries no request_id")
	}
	if got := w.Header().Get("X-Request-ID"); got != resp.RequestID {
		t.Fatalf("request_id %q != X-Request-ID %q", resp.RequestID, got)
	}

	// Join labels back.
	fw := postJSON(t, h, "/feedback", FeedbackRequest{RequestID: resp.RequestID, Labels: []float64{1, 0, 0}})
	if fw.Code != http.StatusOK {
		t.Fatalf("feedback = %d: %s", fw.Code, fw.Body)
	}
	var fresp FeedbackResponse
	if err := json.Unmarshal(fw.Body.Bytes(), &fresp); err != nil {
		t.Fatal(err)
	}
	if fresp.Joined != 3 || fresp.Domain != "a" {
		t.Fatalf("feedback response = %+v", fresp)
	}
	if v, ok := seriesValue(t, reg, "mamdr_quality_feedback_joins_total"); !ok || v != 1 {
		t.Fatalf("feedback_joins_total = %v (%v), want 1", v, ok)
	}
	if v, ok := seriesValue(t, reg, "mamdr_quality_labels_total", telemetry.L("domain", "a")); !ok || v != 3 {
		t.Fatalf("labels_total{a} = %v (%v), want 3", v, ok)
	}

	// The same ID cannot join twice.
	fw = postJSON(t, h, "/feedback", FeedbackRequest{RequestID: resp.RequestID, Labels: []float64{1, 0, 0}})
	if fw.Code != http.StatusNotFound {
		t.Fatalf("replayed feedback = %d, want 404", fw.Code)
	}
	if v, _ := seriesValue(t, reg, "mamdr_quality_feedback_misses_total"); v != 1 {
		t.Fatalf("feedback_misses_total = %v, want 1", v)
	}

	// Misaligned labels are a 400.
	w = postJSON(t, h, "/predict", PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}})
	json.Unmarshal(w.Body.Bytes(), &resp)
	fw = postJSON(t, h, "/feedback", FeedbackRequest{RequestID: resp.RequestID, Labels: []float64{1, 0}})
	if fw.Code != http.StatusBadRequest {
		t.Fatalf("misaligned feedback = %d, want 400", fw.Code)
	}

	// Unknown ID is a 404; missing ID a 400.
	if fw = postJSON(t, h, "/feedback", FeedbackRequest{RequestID: "nope", Labels: []float64{1}}); fw.Code != http.StatusNotFound {
		t.Fatalf("unknown-id feedback = %d, want 404", fw.Code)
	}
	if fw = postJSON(t, h, "/feedback", FeedbackRequest{Labels: []float64{1}}); fw.Code != http.StatusBadRequest {
		t.Fatalf("no-id feedback = %d, want 400", fw.Code)
	}
}

// TestFeedbackEvictionsCountedWithoutFeedback: predictions that age out
// of the join buffer are counted as they go, on a server that never
// receives a /feedback.
func TestFeedbackEvictionsCountedWithoutFeedback(t *testing.T) {
	st, ds, factory := testState(t)
	reg := telemetry.New()
	srv := NewWithOptions(st, ds, Options{
		Replicas: 1, ReplicaFactory: factory, Metrics: reg,
		Quality: quality.NewTracker(reg, quality.Options{}), FeedbackTTL: time.Millisecond,
	})
	h := srv.Handler()
	for i := 0; i < 2; i++ {
		if w := postJSON(t, h, "/predict", PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}}); w.Code != http.StatusOK {
			t.Fatalf("predict %d = %d: %s", i, w.Code, w.Body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v, ok := seriesValue(t, reg, "mamdr_quality_feedback_evictions_total"); !ok || v < 1 {
		t.Fatalf("feedback_evictions_total = %v (%v), want ≥ 1: the first prediction expired", v, ok)
	}
}

func TestPredictRecordsScoreDistribution(t *testing.T) {
	srv, reg, _ := qualityServer(t)
	h := srv.Handler()
	for i := 0; i < 10; i++ {
		w := postJSON(t, h, "/predict", PredictRequest{Domain: 1, Users: []int{0, 1}, Items: []int{1, 0}})
		if w.Code != http.StatusOK {
			t.Fatalf("predict = %d", w.Code)
		}
	}
	found := false
	for _, f := range reg.Snapshot().Families {
		if f.Name != "mamdr_serve_scores" {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Name == "domain" && l.Value == "b" && s.Count == 20 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("mamdr_serve_scores{domain=b} missing or wrong count")
	}
	// The tracker saw the same scores.
	if v, ok := seriesValue(t, reg, "mamdr_quality_auc", telemetry.L("domain", "b")); !ok || v != 0.5 {
		// No labels yet: windowed AUC must sit at the degenerate 0.5.
		t.Fatalf("mamdr_quality_auc{b} = %v (%v), want 0.5 with no labels", v, ok)
	}
}

func TestFeedbackNotMountedWithoutQuality(t *testing.T) {
	s, _ := testServer(t)
	w := postJSON(t, s.Handler(), "/feedback", FeedbackRequest{RequestID: "x", Labels: []float64{1}})
	if w.Code != http.StatusNotFound {
		t.Fatalf("feedback without quality = %d, want 404", w.Code)
	}
}

// failingWriter errors on every body write — the broken-pipe case.
type failingWriter struct {
	httptest.ResponseRecorder
}

func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

func TestWriteJSONFailureCountedAndLoggedOnce(t *testing.T) {
	st, ds, factory := testState(t)
	reg := telemetry.New()
	var logBuf strings.Builder
	srv := NewWithOptions(st, ds, Options{
		Replicas: 1, ReplicaFactory: factory, Metrics: reg,
		AccessLog: slog.New(slog.NewTextHandler(&logBuf, nil)),
	})

	req := httptest.NewRequest(http.MethodPost, "/domains", nil)
	req.Method = http.MethodGet
	inner := &failingWriter{}
	sw := &statusWriter{ResponseWriter: inner, code: http.StatusOK}
	sw.Header().Set("X-Request-ID", "rid-1")
	srv.writeJSON(sw, req, DomainsResponse{NumDomains: 2, Names: []string{"a", "b"}})
	srv.writeJSON(sw, req, DomainsResponse{NumDomains: 2, Names: []string{"a", "b"}})

	if v, ok := seriesValue(t, reg, "mamdr_serve_write_failures_total"); !ok || v != 2 {
		t.Fatalf("write_failures_total = %v (%v), want 2 (every failure counted)", v, ok)
	}
	if got := strings.Count(logBuf.String(), "response write failed"); got != 1 {
		t.Fatalf("write failure logged %d times, want once per request ID:\n%s", got, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "rid-1") {
		t.Fatalf("log line carries no request ID:\n%s", logBuf.String())
	}
}
