package ps

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/framework"
	"mamdr/internal/telemetry"
)

// TestCountersRaceSafe hammers PushDelta, PullDense, and PullRows from
// many goroutines while concurrently snapshotting Counters(); run under
// -race (the Makefile race target and CI do) it proves the counter
// reads never observe torn or unsynchronized state, and afterwards the
// totals must be exact.
func TestCountersRaceSafe(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(200, 4), autograd.ParamZeros(4, 4)}
	s := NewServer(params, map[int]int{0: 0}, "sgd", 0.1)
	s.SetMetrics(NewMetrics(telemetry.New()))

	const writers, iters = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Dedicated readers snapshotting counters the whole time.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c := s.Counters()
					if c.FloatsMoved < 0 {
						t.Error("negative floats moved")
						return
					}
				}
			}
		}()
	}
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				s.PushDelta(context.Background(), Delta{
					Dense:     map[int][]float64{1: make([]float64, 16)},
					Rows:      map[int][]int{0: {rng.Intn(200)}},
					RowDeltas: map[int][][]float64{0: {{0.1, 0.1, 0.1, 0.1}}},
				})
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()

	c := s.Counters()
	if c.DensePushes != writers*iters || c.RowPushes != writers*iters {
		t.Fatalf("lost pushes under concurrency: %+v", c)
	}
	wantFloats := int64(writers * iters * (16 + 4))
	if c.FloatsMoved != wantFloats {
		t.Fatalf("floats moved = %d, want %d", c.FloatsMoved, wantFloats)
	}
}

// TestServerMetricsMirrorCounters checks the telemetry series track the
// legacy Counters struct exactly.
func TestServerMetricsMirrorCounters(t *testing.T) {
	reg := telemetry.New()
	params := []*autograd.Tensor{autograd.ParamZeros(100, 2), autograd.ParamZeros(1, 3)}
	s := NewServer(params, map[int]int{0: 0}, "sgd", 1)
	s.SetMetrics(NewMetrics(reg))

	s.PullDense(context.Background())
	s.PullRows(context.Background(), 0, []int{1, 2, 3})
	s.PushDelta(context.Background(), Delta{
		Dense:     map[int][]float64{1: {0, 0, 0}},
		Rows:      map[int][]int{0: {5, 6}},
		RowDeltas: map[int][][]float64{0: {{1, 1}, {2, 2}}},
	})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	c := s.Counters()
	for _, want := range []string{
		"mamdr_ps_dense_pulls_total 1",
		"mamdr_ps_row_pulls_total 3",
		"mamdr_ps_dense_pushes_total 1",
		"mamdr_ps_row_pushes_total 2",
		`mamdr_ps_row_sync_floats_total{tensor="0"} 10`, // 3 pulled + 2 pushed rows x 2 cols
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if want := "mamdr_ps_floats_moved_total 16"; !strings.Contains(out, want) || c.FloatsMoved != 16 {
		t.Errorf("floats mismatch: counters=%d, exposition:\n%s", c.FloatsMoved, out)
	}
}

// TestDistributedTrainingRecordsCacheAndStaleness runs the PS-Worker
// trainer fully instrumented and checks the worker-side series: cache
// hits and misses both occur, the hit ratio lands in (0, 1), staleness
// observations exist, and the shared training telemetry (per-domain
// loss, conflict histogram) is populated too.
func TestDistributedTrainingRecordsCacheAndStaleness(t *testing.T) {
	ds := testDataset(t)
	reg := telemetry.New()
	m := NewMetrics(reg)
	tm := framework.NewTrainMetrics(reg, ds, nil)

	res := Train(replicaFactory(ds), ds, Options{
		Workers: 2, Epochs: 3, Seed: 9, CacheEnabled: true, UseDR: true,
		Metrics: m, Telemetry: tm,
	})
	if res.State == nil {
		t.Fatal("training failed")
	}

	hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
	if hits == 0 || misses == 0 {
		t.Fatalf("cache series empty: hits=%d misses=%d", hits, misses)
	}
	ratio := m.hitRatio.Value()
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("hit ratio = %g, want in (0,1)", ratio)
	}
	if want := float64(hits) / float64(hits+misses); ratio != want {
		t.Fatalf("hit ratio gauge = %g, want %g", ratio, want)
	}
	if m.staleness.Count() == 0 {
		t.Fatal("no staleness observations")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"mamdr_ps_cache_hit_ratio ",
		"mamdr_ps_row_staleness_batches_bucket",
		`mamdr_train_domain_loss{domain="a"}`,
		"mamdr_train_grad_cosine_count",
		`mamdr_train_dr_loss{domain="b"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestNaiveProtocolHasLowHitRatio pins the cache experiment's telemetry
// story: with the cache disabled every batch re-pulls, so the hit ratio
// must be far below the cached run's.
func TestNaiveProtocolHasLowHitRatio(t *testing.T) {
	ds := testDataset(t)
	run := func(cache bool) float64 {
		m := NewMetrics(telemetry.New())
		Train(replicaFactory(ds), ds, Options{
			Workers: 2, Epochs: 2, Seed: 9, CacheEnabled: cache, Metrics: m,
		})
		return m.hitRatio.Value()
	}
	cached, naive := run(true), run(false)
	t.Logf("hit ratio: cached=%.3f naive=%.3f", cached, naive)
	if cached <= naive {
		t.Fatalf("cache hit ratio %.3f not above naive %.3f", cached, naive)
	}
}
