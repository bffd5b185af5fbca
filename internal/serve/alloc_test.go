package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/quality"
	"mamdr/internal/synth"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// rankState is a tail-shaped serving state at a test's size: a Zipf
// spread of Taobao-online domains with learned user and item embeddings,
// and the serving benchmark's model (an MLP over 16-wide embeddings,
// hidden 64 and 32), fitted for one epoch.
func rankState(tb testing.TB) (*core.State, *data.Dataset, func() models.Model) {
	tb.Helper()
	cfg := synth.TaobaoOnline(24, 1500, 71)
	cfg.FixedFeatures = false
	cfg.NumUsers, cfg.NumItems = 400, 300
	ds := synth.Generate(cfg)
	factory := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 16, Hidden: []int{64, 32}, Seed: 5})
	}
	st := framework.MustNew("mamdr").Fit(factory(), ds, framework.Config{Epochs: 1, BatchSize: 64, Seed: 9}).(*core.State)
	return st, ds, factory
}

// observedHandler is mamdr-serve's default server over st: metrics,
// quality (with a validation baseline, checks on) and tracing of every
// request.
func observedHandler(st *core.State, ds *data.Dataset, factory func() models.Model) http.Handler {
	reg := telemetry.New()
	tracker := quality.NewTracker(reg, quality.Options{Checks: true})
	tracker.SetBaseline(framework.QualityBaseline(st, ds, data.Val))
	return NewWithOptions(st, ds, Options{
		ReplicaFactory: factory, Metrics: reg, Quality: tracker, Tracer: trace.New(trace.Options{Sample: 1}),
	}).Handler()
}

// rankBody is a /predict body for one user and the first n items.
func rankBody(tb testing.TB, domain, user, n int) []byte {
	req := PredictRequest{Domain: domain, Users: make([]int, n), Items: make([]int, n)}
	for i := range req.Items {
		req.Users[i], req.Items[i] = user, i
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestPredictAllocCeilings holds the allocations of one /predict through
// Handler() — metrics, quality and tracing on; the request, its recorder
// and net/http's share counted in — under the counts they were brought
// down to: a one-pair request and a ranking request of one user × 256
// candidates. A change that allocates more per request fails here.
func TestPredictAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	st, ds, factory := rankState(t)
	h := observedHandler(st, ds, factory)
	for _, c := range []struct {
		name           string
		pairs, ceiling int
	}{
		{"one pair", 1, 109},
		{"rank 1x256", 256, 112},
	} {
		body := rankBody(t, 0, 7, c.pairs)
		predict := func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", c.name, w.Code, w.Body)
			}
		}
		predict()
		if got := testing.AllocsPerRun(200, predict); got > float64(c.ceiling) {
			t.Errorf("%s: %v allocations per /predict, ceiling %d", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %v allocations per /predict (ceiling %d)", c.name, got, c.ceiling)
		}
	}
}
