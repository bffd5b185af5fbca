package telemetry_test

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

type recordingSink struct {
	mu    sync.Mutex
	kinds []string
	last  map[string]any
}

func (s *recordingSink) Trigger(kind string, fields map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kinds = append(s.kinds, kind)
	s.last = fields
}

func (s *recordingSink) fired() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.kinds...)
}

func TestLossWatchNaNAndInf(t *testing.T) {
	sink := &recordingSink{}
	lw := telemetry.NewLossWatch(sink, nil)
	lw.Observe("books", 0.5, nil)
	lw.Observe("books", math.NaN(), map[string]any{"worker": 3})
	lw.Observe("games", math.Inf(1), nil)
	if got := sink.fired(); len(got) != 2 || got[0] != "nan_loss" || got[1] != "nan_loss" {
		t.Fatalf("fired = %v, want two nan_loss", got)
	}
	if sink.last["domain"] != "games" || sink.last["loss"] != "non-finite" {
		t.Fatalf("fields = %v", sink.last)
	}
}

func TestLossWatchSpikeZScore(t *testing.T) {
	sink := &recordingSink{}
	lw := telemetry.NewLossWatch(sink, nil)
	// Steady losses around 0.5 with a little variance.
	for i := 0; i < 20; i++ {
		lw.Observe("books", 0.5+float64(i%5)*0.01, nil)
	}
	if len(sink.fired()) != 0 {
		t.Fatalf("steady losses fired %v", sink.fired())
	}
	lw.Observe("books", 5.0, nil) // massive spike
	got := sink.fired()
	if len(got) != 1 || got[0] != "loss_spike" {
		t.Fatalf("fired = %v, want one loss_spike", got)
	}
	if z, ok := sink.last["z"].(float64); !ok || z <= 3 {
		t.Fatalf("z = %v, want > 3", sink.last["z"])
	}
	// Other domains have independent statistics: a spike-sized value
	// during another domain's warmup stays quiet.
	lw.Observe("games", 5.0, nil)
	if len(sink.fired()) != 1 {
		t.Fatalf("cross-domain stats leaked: %v", sink.fired())
	}
}

func TestLossWatchNilSafe(t *testing.T) {
	var lw *telemetry.LossWatch
	lw.Observe("books", math.NaN(), nil) // must not panic
}

// TestNaNLossDumpsFlightRecorderOnce is the acceptance wiring: an
// injected NaN loss, observed through the LossWatch with a tracing
// flight recorder as its sink, produces exactly one dump file holding
// the >= 64 most recent spans with the triggering span marked.
func TestNaNLossDumpsFlightRecorderOnce(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "fl")
	tr := trace.New(trace.Options{FlightSize: 64, FlightPath: prefix})
	ctx := tr.Context(context.Background())

	var last *trace.Span
	for i := 0; i < 80; i++ {
		_, s := trace.Start(ctx, "dn.inner_step", trace.A("i", i))
		s.End()
		last = s
	}

	lw := telemetry.NewLossWatch(tr.Flight(), nil)
	inject := func() {
		lw.Observe("books", math.NaN(), map[string]any{
			"trace_id": last.TraceID, "span_id": last.ID,
		})
	}
	inject()
	inject() // NaN repeats every step after the first; still one dump

	dumps := tr.Flight().Dumps()
	if len(dumps) != 1 {
		t.Fatalf("%d dumps, want exactly 1", len(dumps))
	}
	if dumps[0].Kind != "nan_loss" || dumps[0].Path == "" {
		t.Fatalf("dump = %+v", dumps[0])
	}
	if len(dumps[0].Spans) < 64 {
		t.Fatalf("dump retained %d spans, want >= 64", len(dumps[0].Spans))
	}
	found := false
	for _, s := range dumps[0].Spans {
		if s.ID == last.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("triggering span not present in the dump")
	}
}
