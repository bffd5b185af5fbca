package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters never decrease
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}

	g := r.Gauge("temp", "temperature")
	g.Set(1.5)
	g.Add(-0.5)
	if g.Value() != 1 {
		t.Fatalf("gauge = %g, want 1", g.Value())
	}
}

func TestGetOrCreateReturnsSameInstrument(t *testing.T) {
	r := New()
	a := r.Counter("hits_total", "h", L("domain", "books"))
	b := r.Counter("hits_total", "h", L("domain", "books"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("hits_total", "h", L("domain", "games"))
	if a == other {
		t.Fatal("different labels returned the same counter")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, fn := range []func(){
		func() { r.Counter("bad name", "h") },
		func() { r.Counter("ok_total", "h", L("0bad", "v")) },
		func() { r.Histogram("h", "h", []float64{2, 1}) },
		func() { r.Histogram("h2", "h", nil) },
		func() { r.Counter("dup", "h", L("a", "1"), L("a", "2")) },
		func() { r.Histogram("h3", "h", []float64{1}, L("le", "x")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHistogramObserve(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-105.65) > 1e-9 {
		t.Fatalf("sum = %g, want 105.65", got)
	}
	// Bucket upper bounds are inclusive: 0.1 falls in le="0.1".
	if n := h.counts[0].Load(); n != 2 {
		t.Fatalf("bucket le=0.1 holds %d, want 2 (0.05 and 0.1)", n)
	}
	if n := h.counts[3].Load(); n != 1 {
		t.Fatalf("+Inf overflow holds %d, want 1", n)
	}
}

func TestHistogramBucketMismatchPanics(t *testing.T) {
	r := New()
	r.Histogram("h_seconds", "h", []float64{1, 2})
	// nil buckets reuse the family's bounds.
	if h := r.Histogram("h_seconds", "h", nil); h == nil {
		t.Fatal("nil buckets should reuse the family bounds")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("different buckets should panic")
		}
	}()
	r.Histogram("h_seconds", "h", []float64{1, 3})
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	g := r.Gauge("y", "y")
	h := r.Histogram("z", "z", []float64{1})
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments recorded values")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry rendered output")
	}
	var l *EventLog
	l.Log("noop", nil) // must not panic
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInstrumentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
				// Concurrent get-or-create against a hot family.
				r.Counter("c_total", "c").Add(0)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d g=%g h=%d", c.Value(), g.Value(), h.Count())
	}
}

func TestEventLogWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Log("epoch", map[string]any{"epoch": 1, "loss": 0.25})
	l.Log("epoch", map[string]any{"epoch": 2})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if rec["event"] != "epoch" || rec["loss"] != 0.25 || rec["ts"] == nil {
		t.Fatalf("record = %v", rec)
	}
}

func TestFamilyWithIsTheRegistrySeries(t *testing.T) {
	r := New()
	lat := r.HistogramFamily("lat_seconds", "latency", []float64{1}, "domain")
	h := lat.With("books")
	if h != lat.With("books") || h != r.Histogram("lat_seconds", "latency", nil, L("domain", "books")) {
		t.Fatal("the family and the registry disagree on a series")
	}
	if lat.With("games") == h {
		t.Fatal("different label values returned the same histogram")
	}
	ops := r.CounterFamily("ops_total", "ops", "shard", "op")
	if ops.With("0", "pull") != r.Counter("ops_total", "ops", L("op", "pull"), L("shard", "0")) {
		t.Fatal("a two-label family disagrees with the registry")
	}
	if ops.With("0", "pull") == ops.With("0", "push") || ops.With("0", "pull") == ops.With("1", "pull") {
		t.Fatal("different label values returned the same counter")
	}

	var none *Registry
	none.CounterFamily("x_total", "x", "k").With("v").Inc() // nil family, nil counter: no-ops

	for _, fn := range []func(){
		func() { ops.With("0") },
		func() { r.CounterFamily("y_total", "y") },
		func() { r.GaugeFamily("z", "z", "a", "b", "c", "d") },
		func() { r.GaugeFamily("lat_seconds", "wrong kind", "domain").With("books") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestFamilyRegistersOnFirstWith: a handle alone adds nothing to the
// exposition, so holding one does not change a scrape.
func TestFamilyRegistersOnFirstWith(t *testing.T) {
	r := New()
	f := r.CounterFamily("late_total", "late", "k")
	if n := len(r.Snapshot().Families); n != 0 {
		t.Fatalf("%d families registered before the first With", n)
	}
	f.With("v").Add(2)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `late_total{k="v"} 2`) {
		t.Fatalf("exposition:\n%s", buf.String())
	}
}

func TestFamilyConcurrentWith(t *testing.T) {
	r := New()
	f := r.CounterFamily("c_total", "c", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				f.With(strconv.Itoa(i % 10)).Inc()
			}
		}()
	}
	wg.Wait()
	var total int64
	for i := 0; i < 10; i++ {
		total += r.Counter("c_total", "c", L("k", strconv.Itoa(i))).Value()
	}
	if total != 8000 {
		t.Fatalf("lost updates: %d, want 8000", total)
	}
}

var sinkHistogram *Histogram

// BenchmarkFamilyWithHit is what a request path pays to find an
// existing labelled series (budget: 100 ns/op, 0 allocs).
func BenchmarkFamilyWithHit(b *testing.B) {
	f := New().HistogramFamily("lat_seconds", "latency", DefBuckets, "domain")
	f.With("books")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHistogram = f.With("books")
	}
}
