// Tests for the micro-batched serving path: bit-identity with the
// unbatched path, rollout-arm routing inside mixed batches, snapshot
// pinning against mid-batch rollbacks, per-request deadlines, and no
// queueing while a replica is free.

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"mamdr/internal/faultinject"
	"mamdr/internal/quality"
	"mamdr/internal/rollout"
	"mamdr/internal/telemetry"
)

// concurrentPredict fires all reqs at the handler simultaneously (one
// goroutine each, released together) and returns the decoded responses
// in request order, failing the test on any non-200.
func concurrentPredict(t *testing.T, h http.Handler, rids []string, reqs []PredictRequest) []PredictResponse {
	t.Helper()
	out := make([]PredictResponse, len(reqs))
	errs := make([]string, len(reqs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rid := ""
			if rids != nil {
				rid = rids[i]
			}
			w := predictRID(t, h, rid, reqs[i])
			if w.Code != http.StatusOK {
				errs[i] = fmt.Sprintf("predict %d = %d: %s", i, w.Code, w.Body)
				return
			}
			if err := json.NewDecoder(w.Body).Decode(&out[i]); err != nil {
				errs[i] = err.Error()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
	return out
}

// holdFirstForward makes a multi-request batch certain: the server's
// first forward holds its replica for 100 ms, so with Replicas: 1 every
// request fired alongside it queues and leaves in the flushes that
// follow.
func holdFirstForward() *faultinject.Injector {
	return faultinject.MustParse("Predict:delay=100ms@1", 1)
}

// TestBatchedMatchesUnbatchedBitIdentical is the correctness anchor:
// at -snapshot-quant=off, scores served through coalesced multi-request
// batches are bit-identical to the single-request path — the kernels'
// determinism contract (textbook accumulation order regardless of row
// count) plus strictly per-row inference math, observed end to end.
func TestBatchedMatchesUnbatchedBitIdentical(t *testing.T) {
	st, ds, factory := testState(t)
	plain := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory})
	reg := telemetry.New()
	batched := NewWithOptions(st, ds, Options{
		Replicas: 1, ReplicaFactory: factory, Metrics: reg, MaxQueue: 1024,
		BatchMax: 64, Faults: holdFirstForward(),
	})
	defer batched.Close()

	reqs := make([]PredictRequest, 24)
	for i := range reqs {
		reqs[i] = PredictRequest{
			Domain: i % 2,
			Users:  []int{i % ds.NumUsers, (i * 7) % ds.NumUsers},
			Items:  []int{(i * 3) % ds.NumItems, (i + 5) % ds.NumItems},
		}
	}
	want := make([][]float64, len(reqs))
	ph := plain.Handler()
	for i, r := range reqs {
		var resp PredictResponse
		if err := json.NewDecoder(postJSON(t, ph, "/predict", r).Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		want[i] = resp.Probabilities
	}

	got := concurrentPredict(t, batched.Handler(), nil, reqs)
	for i := range reqs {
		if len(got[i].Probabilities) != len(want[i]) {
			t.Fatalf("request %d: %d probabilities, want %d", i, len(got[i].Probabilities), len(want[i]))
		}
		for j := range want[i] {
			if got[i].Probabilities[j] != want[i][j] {
				t.Fatalf("request %d pair %d: batched %v != unbatched %v (must be bit-identical)",
					i, j, got[i].Probabilities[j], want[i][j])
			}
		}
	}
	// The comparison is only meaningful if coalescing actually happened:
	// more requests than flushes means at least one multi-request batch.
	flushes := reg.Histogram("mamdr_serve_batch_requests", "", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	if flushes.Sum() <= float64(flushes.Count()) {
		t.Fatalf("no multi-request batch formed (%d flushes for %.0f requests)",
			flushes.Count(), flushes.Sum())
	}
}

// TestMixedArmBatchAttributesVersions: requests hash to incumbent or
// canary independently inside one micro-batch, each arm runs its own
// forward, and the JoinBuffer entry for every request carries the
// version of the snapshot that actually served it — labels arriving
// mid-canary credit the right arm.
func TestMixedArmBatchAttributesVersions(t *testing.T) {
	st, ds, factory := testState(t)
	reg := telemetry.New()
	s := NewWithOptions(st, ds, Options{
		Replicas: 1, ReplicaFactory: factory, Metrics: reg, MaxQueue: 1024,
		Quality:  quality.NewTracker(reg, quality.Options{}),
		BatchMax: 64, Faults: holdFirstForward(),
	})
	defer s.Close()
	// A gate must be attached for Publish to stage a canary; thresholds
	// are set unreachably high so it never decides mid-test.
	s.SetRollout(rollout.New(s, reg, nil, rollout.Config{
		Fraction: 0.5, MinLabeled: 1 << 20, MinScores: 1 << 20,
	}))
	if _, canary, err := s.Publish(cloneState(st, factory()), 0, 0xfeed, nil); err != nil || !canary {
		t.Fatalf("Publish = (canary %v, %v)", canary, err)
	}

	const perArm = 8
	incRIDs := ridsFor(0.5, false, perArm, "inc")
	canRIDs := ridsFor(0.5, true, perArm, "can")
	rids := append(append([]string(nil), incRIDs...), canRIDs...)
	reqs := make([]PredictRequest, len(rids))
	for i := range reqs {
		// One domain: every request lands in the same coalescer queue, so
		// the batches that form span both arms.
		reqs[i] = PredictRequest{Domain: 0, Users: []int{i % ds.NumUsers}, Items: []int{(i * 3) % ds.NumItems}}
	}
	concurrentPredict(t, s.Handler(), rids, reqs)

	flushes := reg.Histogram("mamdr_serve_batch_requests", "", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	if flushes.Sum() <= float64(flushes.Count()) {
		t.Fatalf("no multi-request batch formed (%d flushes for %.0f requests)", flushes.Count(), flushes.Sum())
	}
	for _, rid := range incRIDs {
		p, ok := s.feedback.Take(rid)
		if !ok || p.Version != 1 {
			t.Fatalf("incumbent rid %s: pending = %+v (ok=%v), want version 1", rid, p, ok)
		}
	}
	for _, rid := range canRIDs {
		p, ok := s.feedback.Take(rid)
		if !ok || p.Version != 2 {
			t.Fatalf("canary rid %s: pending = %+v (ok=%v), want version 2", rid, p, ok)
		}
	}
}

// TestMidBatchRollbackDoesNotTear hammers a batching server with
// predictions while canaries publish and roll back concurrently. The
// runBatch frame pins ONE view load for its whole flush, and the canary
// is a bit-identical clone, so every response must be 200 with exactly
// the baseline scores — a torn batch (half old snapshot, half dropped
// canary) would surface as an error or a score drift. Run with -race.
func TestMidBatchRollbackDoesNotTear(t *testing.T) {
	st, ds, factory := testState(t)
	reg := telemetry.New()
	s := NewWithOptions(st, ds, Options{
		Replicas: 2, ReplicaFactory: factory, Metrics: reg, MaxQueue: 1024,
		BatchMax: 16,
	})
	defer s.Close()
	s.SetRollout(rollout.New(s, reg, nil, rollout.Config{
		Fraction: 0.5, MinLabeled: 1 << 20, MinScores: 1 << 20,
	}))
	h := s.Handler()

	req := PredictRequest{Domain: 0, Users: []int{1, 2}, Items: []int{0, 3}}
	var baseline PredictResponse
	if err := json.NewDecoder(postJSON(t, h, "/predict", req).Body).Decode(&baseline); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, canary, err := s.Publish(cloneState(st, factory()), 0, 0, nil); err != nil || !canary {
				t.Errorf("publish %d = (canary %v, %v)", i, canary, err)
				return
			}
			time.Sleep(300 * time.Microsecond)
			// Cancel through the gate (the /admin/rollback path): the
			// controller clears its own canary state and invokes the
			// Fleet rollback.
			if d := s.gate().Cancel(); d == nil {
				t.Errorf("cancel %d: no canary in flight", i)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				w := predictRID(t, h, fmt.Sprintf("tear-%d-%03d", g, i), req)
				if w.Code != http.StatusOK {
					t.Errorf("goroutine %d request %d = %d: %s", g, i, w.Code, w.Body)
					return
				}
				var resp PredictResponse
				if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
					t.Error(err)
					return
				}
				for j := range baseline.Probabilities {
					if resp.Probabilities[j] != baseline.Probabilities[j] {
						t.Errorf("goroutine %d request %d pair %d: %v != baseline %v (torn batch?)",
							g, i, j, resp.Probabilities[j], baseline.Probabilities[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

// TestBatchDeadlineRespected: a batched request whose replica never
// frees up fails with the same 503 + Retry-After contract as the
// inline path, within its own deadline.
func TestBatchDeadlineRespected(t *testing.T) {
	st, ds, _ := testState(t)
	s := NewWithOptions(st, ds, Options{
		RequestTimeout: 30 * time.Millisecond,
		BatchMax:       8,
	})
	defer s.Close()
	rep := <-s.pool // starve the pool: single replica held by "another request"
	defer func() { s.pool <- rep }()

	start := time.Now()
	w := postJSON(t, s.Handler(), "/predict", PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("starved predict = %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline took %v, want ~30ms", elapsed)
	}
}

// TestSequentialRequestsNeverQueue: a request that finds a replica free
// is its own forward at once — back-to-back requests at BatchMax 64 are
// one idle flush each and none of them waits for a slot.
func TestSequentialRequestsNeverQueue(t *testing.T) {
	st, ds, factory := testState(t)
	reg := telemetry.New()
	s := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory, Metrics: reg, BatchMax: 64})
	defer s.Close()
	const n = 20
	for i := 0; i < n; i++ {
		w := postJSON(t, s.Handler(), "/predict", PredictRequest{Domain: i % 2, Users: []int{i % ds.NumUsers}, Items: []int{0}})
		if w.Code != http.StatusOK {
			t.Fatalf("predict %d = %d: %s", i, w.Code, w.Body)
		}
	}
	flushes := func(reason string) int64 {
		return reg.Counter("mamdr_serve_batch_flushes_total", "", telemetry.L("reason", reason)).Value()
	}
	if flushes("idle") != n || flushes("slot") != 0 || flushes("close") != 0 {
		t.Fatalf("flushes idle/slot/close = %d/%d/%d, want %d/0/0", flushes("idle"), flushes("slot"), flushes("close"), n)
	}
	// nil buckets: the family as the server registered it.
	if wait := reg.Histogram("mamdr_serve_batch_wait_seconds", "", nil); wait.Count() != n || wait.Sum() != 0 {
		t.Fatalf("batch wait: %d flushes summing %v s, want %d at 0", wait.Count(), wait.Sum(), n)
	}
}

// TestBatchCloseShedsCleanly: submissions after Close get a clean 503,
// not a hang or a panic.
func TestBatchCloseShedsCleanly(t *testing.T) {
	st, ds, _ := testState(t)
	s := NewWithOptions(st, ds, Options{BatchMax: 8})
	s.Close()
	w := postJSON(t, s.Handler(), "/predict", PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict after Close = %d: %s", w.Code, w.Body)
	}
}

// TestQuantServingStaysClose: under -snapshot-quant=int8 the served
// scores track the exact float64 scores within a coarse bound (the
// per-row quantization error is scale/2 per element), and the hot-row
// cache actually carries the lookups.
func TestQuantServingStaysClose(t *testing.T) {
	st, ds, factory := testState(t)
	qs := NewWithOptions(st, ds, Options{
		Replicas: 2, ReplicaFactory: factory, SnapshotQuant: "int8", QuantCacheRows: 8,
	})
	if qs.layout.cache == nil {
		t.Fatal("test model has embedding tables; the int8 row cache must be armed")
	}
	ref := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory})
	h, rh := qs.Handler(), ref.Handler()

	for i := 0; i < 12; i++ {
		req := PredictRequest{
			Domain: i % 2,
			Users:  []int{i % ds.NumUsers},
			Items:  []int{(i * 3) % ds.NumItems},
		}
		var got, exact PredictResponse
		if err := json.NewDecoder(postJSON(t, h, "/predict", req).Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(postJSON(t, rh, "/predict", req).Body).Decode(&exact); err != nil {
			t.Fatal(err)
		}
		for j := range exact.Probabilities {
			if d := got.Probabilities[j] - exact.Probabilities[j]; d > 0.05 || d < -0.05 {
				t.Fatalf("request %d pair %d: int8 score %v vs exact %v (|Δ|=%v too large)",
					i, j, got.Probabilities[j], exact.Probabilities[j], d)
			}
		}
	}
	if hits, misses := qs.layout.cache.Stats(); hits+misses == 0 {
		t.Fatal("quantized serving never touched the row cache")
	}
}
