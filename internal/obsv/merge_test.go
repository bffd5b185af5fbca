package obsv

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mamdr/internal/telemetry"
	"mamdr/internal/telemetry/promtest"
)

// twoRegistries builds two process registries with the same schema and
// known values: counters 3 and 7, gauges 1.5 and 2.5, and histograms
// with identical bounds holding distinct observations.
func twoRegistries() (*telemetry.Registry, *telemetry.Registry) {
	bounds := []float64{1, 2, 4}
	a := telemetry.New()
	a.Counter("test_ops_total", "ops", telemetry.L("kind", "x")).Add(3)
	a.Gauge("test_depth", "depth").Set(1.5)
	ha := a.Histogram("test_latency", "lat", bounds)
	for _, v := range []float64{0.5, 1.5, 3, 9} {
		ha.Observe(v)
	}
	b := telemetry.New()
	b.Counter("test_ops_total", "ops", telemetry.L("kind", "x")).Add(7)
	b.Gauge("test_depth", "depth").Set(2.5)
	hb := b.Histogram("test_latency", "lat", bounds)
	for _, v := range []float64{0.25, 1.75, 5} {
		hb.Observe(v)
	}
	return a, b
}

func snapOf(t *testing.T, r *telemetry.Registry, role, instance string) telemetry.RegistrySnapshot {
	t.Helper()
	s := r.Snapshot()
	s.Role, s.Instance = role, instance
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFederateAddsInstanceLabelsAndValidates(t *testing.T) {
	a, b := twoRegistries()
	fleet, err := Federate([]telemetry.RegistrySnapshot{
		snapOf(t, a, "ps", "127.0.0.1:1"), snapOf(t, b, "ps", "127.0.0.1:2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := fleet.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	promtest.Validate(t, text)

	for _, want := range []string{
		`test_ops_total{instance="127.0.0.1:1",kind="x",role="ps"} 3`,
		`test_ops_total{instance="127.0.0.1:2",kind="x",role="ps"} 7`,
		`test_latency_count{instance="127.0.0.1:1",role="ps"} 4`,
		`test_latency_count{instance="127.0.0.1:2",role="ps"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated exposition missing %q\n%s", want, text)
		}
	}
}

// TestAggregateSumsBitExact pins the merge math: counters sum, and
// identical histogram schemas merge bucket-wise with integer counts —
// bit-exact, not approximately.
func TestAggregateSumsBitExact(t *testing.T) {
	a, b := twoRegistries()
	agg, err := Aggregate([]telemetry.RegistrySnapshot{
		snapOf(t, a, "ps", "i1"), snapOf(t, b, "ps", "i2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]telemetry.FamilySnapshot{}
	for _, f := range agg {
		byName[f.Name] = f
	}

	if got := byName["test_ops_total"].Series[0].Value; got != 10 {
		t.Errorf("counter sum = %v, want 10", got)
	}
	if got := byName["test_depth"].Series[0].Value; got != 4 {
		t.Errorf("gauge sum = %v, want 4", got)
	}
	h := byName["test_latency"].Series[0]
	// a: buckets [1 1 1 1] (0.5 | 1.5 | 3 | 9), b: [1 1 0 1].
	wantBuckets := []int64{2, 2, 1, 2}
	for i, w := range wantBuckets {
		if h.Buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, h.Buckets[i], w)
		}
	}
	if h.Count != 7 {
		t.Errorf("merged count = %d, want 7", h.Count)
	}
	if want := 0.5 + 1.5 + 3 + 9 + 0.25 + 1.75 + 5; h.Sum != want {
		t.Errorf("merged sum = %v, want %v (bit-exact)", h.Sum, want)
	}
}

// TestMergeRejectsMismatchedSchemas pins the loud-failure contract: a
// histogram family whose instances disagree on bucket bounds must
// refuse to merge, naming the family and the offending instance.
func TestMergeRejectsMismatchedSchemas(t *testing.T) {
	a := telemetry.New()
	a.Histogram("test_latency", "lat", []float64{1, 2, 4}).Observe(1)
	b := telemetry.New()
	b.Histogram("test_latency", "lat", []float64{1, 2, 8}).Observe(1)
	snaps := []telemetry.RegistrySnapshot{snapOf(t, a, "ps", "i1"), snapOf(t, b, "ps", "i2")}

	for name, run := range map[string]func() error{
		"federate":  func() error { _, err := Federate(snaps); return err },
		"aggregate": func() error { _, err := Aggregate(snaps); return err },
	} {
		err := run()
		if err == nil {
			t.Fatalf("%s: mismatched bucket schemas merged silently", name)
		}
		for _, frag := range []string{"test_latency", "i2", "mismatched schemas"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s error %q does not mention %q", name, err, frag)
			}
		}
	}

	// Kind conflicts are rejected the same way.
	c := telemetry.New()
	c.Counter("test_latency", "now a counter").Inc()
	if _, err := Federate([]telemetry.RegistrySnapshot{snapOf(t, a, "ps", "i1"), snapOf(t, c, "ps", "i3")}); err == nil {
		t.Fatal("kind conflict merged silently")
	}
}

// TestConcurrentScrapeFederation hammers live snapshot handlers from
// concurrent scrapers while writers mutate the registries, and
// validates every federated exposition — the -race half of the merge
// satellite.
func TestConcurrentScrapeFederation(t *testing.T) {
	a, b := twoRegistries()
	sa := httptest.NewServer(telemetry.SnapshotHandler("ps", "", a))
	defer sa.Close()
	sb := httptest.NewServer(telemetry.SnapshotHandler("serve", "", b))
	defer sb.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for _, reg := range []*telemetry.Registry{a, b} {
		writers.Add(1)
		go func(reg *telemetry.Registry) {
			defer writers.Done()
			c := reg.Counter("test_ops_total", "ops", telemetry.L("kind", "x"))
			h := reg.Histogram("test_latency", "lat", []float64{1, 2, 4})
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(1.5)
				}
			}
		}(reg)
	}

	targets := []Target{
		{Role: "ps", Addr: strings.TrimPrefix(sa.URL, "http://")},
		{Role: "serve", Addr: strings.TrimPrefix(sb.URL, "http://")},
	}
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var sc Scraper
			for i := 0; i < 10; i++ {
				results := sc.ScrapeAll(targets)
				var snaps []telemetry.RegistrySnapshot
				for _, r := range results {
					if r.Err != nil {
						t.Error(r.Err)
						return
					}
					snaps = append(snaps, r.Snap)
				}
				fleet, err := Federate(snaps)
				if err != nil {
					t.Error(err)
					return
				}
				var buf strings.Builder
				if err := fleet.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				promtest.Validate(t, buf.String())
				if _, err := Aggregate(snaps); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}

func TestParseTargets(t *testing.T) {
	ts, err := ParseTargets("trainer=127.0.0.1:9090, ps=127.0.0.1:7000,127.0.0.1:8080")
	if err != nil {
		t.Fatal(err)
	}
	want := []Target{
		{Role: "trainer", Addr: "127.0.0.1:9090"},
		{Role: "ps", Addr: "127.0.0.1:7000"},
		{Role: "unknown", Addr: "127.0.0.1:8080"},
	}
	if len(ts) != len(want) {
		t.Fatalf("got %d targets, want %d", len(ts), len(want))
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("target[%d] = %+v, want %+v", i, ts[i], want[i])
		}
	}
	if _, err := ParseTargets("not-an-addr"); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := ParseTargets(" , "); err == nil {
		t.Error("empty target list accepted")
	}
}
