package ps

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mamdr/internal/autograd"
	"mamdr/internal/autograd/kernels"
	"mamdr/internal/faultinject"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// chaosOptions is the shared configuration for the determinism tests:
// SyncPush freezes the delta-apply order, so a faulty run and a clean
// run must agree float for float.
func chaosOptions() Options {
	return Options{
		Workers: 2, Shards: 2, Epochs: 3, Seed: 9,
		CacheEnabled: true, SyncPush: true,
		OuterOpt: "adagrad", OuterLR: 0.1,
	}
}

func requireSameVector(t *testing.T, name string, a, b paramvec.Vector) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: tensor count %d vs %d", name, len(a), len(b))
	}
	for ti := range a {
		if len(a[ti]) != len(b[ti]) {
			t.Fatalf("%s: tensor %d size %d vs %d", name, ti, len(a[ti]), len(b[ti]))
		}
		for j := range a[ti] {
			if a[ti][j] != b[ti][j] {
				t.Fatalf("%s: tensor %d[%d] = %g vs %g (must be bit-identical)",
					name, ti, j, a[ti][j], b[ti][j])
			}
		}
	}
}

// TestChaosDeterminismOverRPC is the headline fault-tolerance property:
// a 2-worker run over a real RPC transport with injected errors,
// delays, and connection drops converges to exactly the same parameters
// as a clean in-process run. Retries are idempotent (sequence tokens),
// absorbed faults never double-apply, and SyncPush fixes the apply
// order, so the trajectories are bit-identical.
func TestChaosDeterminismOverRPC(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)

	clean := Train(factory, ds, chaosOptions())

	// Faulty twin: same options, but every worker talks to the server
	// through its own freshly dialed client armed with a seeded fault
	// injector and a tight retry policy.
	serving := factory()
	server := NewServer(serving.Parameters(), models.EmbeddingTablesOf(serving), "adagrad", 0.1)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(server, lis)

	base, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	var injectors []*faultinject.Injector
	opts := chaosOptions()
	opts.WrapStore = func(workerID int, _ Store) Store {
		cl, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cl.SetBackoff(Backoff{Attempts: 30, Base: time.Millisecond, Max: 4 * time.Millisecond, Seed: int64(workerID)})
		inj := faultinject.MustParse(
			"PushDelta:err@p0.1; PullDense:err@p0.1; PullRows:delay=1ms@p0.05; conn:drop@4,9", int64(workerID))
		cl.SetInjector(inj)
		injectors = append(injectors, inj)
		return cl
	}
	faulty := TrainWithStore(factory, serving, base, base, ds, opts)

	var injected int64
	for _, inj := range injectors {
		for _, n := range inj.Counts() {
			injected += n
		}
	}
	if injected == 0 {
		t.Fatal("fault schedule injected nothing; the test is vacuous")
	}
	t.Logf("injected %d faults; comparing final parameters", injected)
	requireSameVector(t, "shared", clean.State.Shared, faulty.State.Shared)
}

// TestDuplicatePushAppliedExactlyOnce covers the idempotency token: a
// retransmitted delta (same WorkerID, same Seq) must be discarded, even
// when the replays race each other.
func TestDuplicatePushAppliedExactlyOnce(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(2, 2)}
	s := NewServer(params, nil, "sgd", 1)
	reg := telemetry.New()
	s.SetMetrics(NewMetrics(reg))

	mk := func(seq int64) Delta {
		return Delta{WorkerID: 7, Seq: seq, Dense: map[int][]float64{0: {1, 1, 1, 1}}}
	}
	ctx := context.Background()
	// The server owns copies of the initial tensors, so observe values
	// the way a worker would: through PullDense.
	val := func() float64 { return s.PullDense(ctx)[0][0] }

	// Sequential replay.
	s.PushDelta(ctx, mk(1))
	s.PushDelta(ctx, mk(1))
	if got := val(); got != 1 {
		t.Fatalf("after duplicate push param = %g, want 1 (applied exactly once)", got)
	}

	// Concurrent replay of the next sequence number (run with -race).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.PushDelta(ctx, mk(2)) }()
	}
	wg.Wait()
	if got := val(); got != 2 {
		t.Fatalf("after concurrent replay param = %g, want 2", got)
	}

	// Stale (lower) sequence numbers are duplicates too.
	s.PushDelta(ctx, mk(1))
	if got := val(); got != 2 {
		t.Fatalf("stale seq applied: param = %g, want 2", got)
	}

	// Untagged deltas (Seq 0) always apply — the single-process path.
	s.PushDelta(ctx, Delta{Dense: map[int][]float64{0: {1, 1, 1, 1}}})
	if got := val(); got != 3 {
		t.Fatalf("untagged delta not applied: param = %g, want 3", got)
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "mamdr_ps_duplicate_pushes_total 9") {
		t.Fatalf("duplicate pushes not counted; exposition:\n%s", buf.String())
	}
}

// faultyClient serves server on a loopback listener and returns a client
// of it whose transport injects schedule's faults under a tight retry
// policy: the store a test hands one worker through WrapStore. A call
// that exhausts its retries panics, which the trainer supervises as a
// worker death. WrapStore may run off the test's goroutine, so a setup
// failure is a t.Error and the worker keeps the plain server.
func faultyClient(t *testing.T, server *Server, schedule string) Store {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Error(err)
		return server
	}
	t.Cleanup(func() { lis.Close() })
	go Serve(server, lis)
	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Error(err)
		return server
	}
	t.Cleanup(func() { cl.Close() })
	cl.SetBackoff(Backoff{Attempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 1})
	cl.SetInjector(faultinject.MustParse(schedule, 1))
	return cl
}

// TestWorkerLossRedistributesDomains kills one of two workers
// mid-training (its store errors every push) and checks the run still
// completes: the survivor takes over the dead worker's domains, the
// death is counted in telemetry, and the flight recorder dumps the
// anomaly.
func TestWorkerLossRedistributesDomains(t *testing.T) {
	ds := testDataset(t)
	reg := telemetry.New()
	prefix := filepath.Join(t.TempDir(), "flight")
	tracer := trace.New(trace.Options{FlightPath: prefix})

	opts := Options{
		Workers: 2, Shards: 2, Epochs: 3, Seed: 9, CacheEnabled: true,
		Metrics: NewMetrics(reg), Tracer: tracer,
	}
	opts.WrapStore = func(workerID int, base Store) Store {
		if workerID != 1 {
			return base
		}
		return faultyClient(t, base.(*Server), "PushDelta:err@*")
	}
	res := Train(replicaFactory(ds), ds, opts)

	if res.WorkerDeaths != 1 {
		t.Fatalf("WorkerDeaths = %d, want 1", res.WorkerDeaths)
	}
	if res.State == nil || len(res.State.Shared) == 0 {
		t.Fatal("training did not produce a state after the worker loss")
	}
	if res.Counters.DensePushes == 0 {
		t.Fatal("survivor pushed nothing")
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "mamdr_ps_worker_deaths_total 1") {
		t.Fatalf("worker death not counted; exposition:\n%s", buf.String())
	}

	dumps := tracer.Flight().Dumps()
	if len(dumps) == 0 {
		t.Fatal("no flight-recorder dump for the worker death")
	}
	found := false
	for _, d := range dumps {
		if d.Kind == "worker_death" {
			found = true
			if d.Path != "" {
				if _, err := os.Stat(d.Path); err != nil {
					t.Fatalf("flight dump file missing: %v", err)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no worker_death dump in %+v", dumps)
	}
}

// TestHeartbeatWatchdogCancelsStalledWorker stalls one worker's store
// (every pull takes far longer than the heartbeat budget) and checks the
// watchdog declares it dead instead of hanging the epoch.
func TestHeartbeatWatchdogCancelsStalledWorker(t *testing.T) {
	ds := testDataset(t)
	opts := Options{
		Workers: 2, Shards: 2, Epochs: 1, Seed: 9, CacheEnabled: true,
		HeartbeatTimeout: 50 * time.Millisecond,
	}
	// Each delayed PullRows stalls well past the heartbeat budget; the
	// worker notices the cancellation at its next batch boundary.
	opts.WrapStore = func(workerID int, base Store) Store {
		if workerID != 1 {
			return base
		}
		return faultyClient(t, base.(*Server), "PullRows:delay=500ms@*")
	}
	done := make(chan *Result, 1)
	go func() { done <- Train(replicaFactory(ds), ds, opts) }()
	select {
	case res := <-done:
		if res.WorkerDeaths != 1 {
			t.Fatalf("WorkerDeaths = %d, want 1 (stalled worker)", res.WorkerDeaths)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("watchdog never cancelled the stalled worker")
	}
}

// TestResumeMatchesUninterrupted is the crash-safety property: train 6
// epochs straight through, then train 3 epochs + kill + resume to 6
// with the same seed — final parameters must be bit-identical. Under
// dropout that also needs every epoch's masks to come from the epoch's
// own RNG: the resumed replicas never drew epochs 0..2's.
func TestResumeMatchesUninterrupted(t *testing.T) {
	ds := testDataset(t)
	for _, dropout := range []float64{0, 0.2} {
		factory := dropoutFactory(ds, dropout)

		full := chaosOptions()
		full.Epochs = 6
		want := Train(factory, ds, full)

		ckpt := filepath.Join(t.TempDir(), "ps.ckpt")

		interrupted := chaosOptions()
		interrupted.Epochs = 3 // the "crash" after epoch 3's checkpoint
		interrupted.CheckpointPath, interrupted.CheckpointEvery = ckpt, 1
		Train(factory, ds, interrupted)

		resumed := chaosOptions()
		resumed.Epochs = 6
		resumed.CheckpointPath, resumed.CheckpointEvery = ckpt, 1
		resumed.Resume = true
		got := Train(factory, ds, resumed)

		if got.ResumedFrom != 3 {
			t.Fatalf("dropout %g: ResumedFrom = %d, want 3", dropout, got.ResumedFrom)
		}
		requireSameVector(t, fmt.Sprintf("resumed shared at dropout %g", dropout), want.State.Shared, got.State.Shared)
	}
}

// TestDRIndependentOfWorkerCount: over one store snapshot — a checkpoint
// that covers every epoch, so a resumed run goes straight to its DR
// phase — 1, 2 and 3 workers end on the same θ_i, float for float: DR is
// core's phase, seeded per target, with the workers' models as replicas.
func TestDRIndependentOfWorkerCount(t *testing.T) {
	defer kernels.SetThreads(0)
	kernels.SetThreads(4)
	ds := testDataset(t)
	factory := replicaFactory(ds)
	opts := chaosOptions()
	opts.UseDR = true
	opts.CheckpointPath, opts.CheckpointEvery = filepath.Join(t.TempDir(), "ps.ckpt"), 1
	Train(factory, ds, opts)

	opts.Resume = true
	var want *Result
	for _, workers := range []int{1, 2, 3} {
		opts.Workers = workers
		got := Train(factory, ds, opts)
		if got.ResumedFrom != opts.Epochs {
			t.Fatalf("ResumedFrom = %d, want %d (no DN epoch may run)", got.ResumedFrom, opts.Epochs)
		}
		if want == nil {
			want = got
			moved := false
			for _, seg := range got.State.Specific[0] {
				for _, v := range seg {
					moved = moved || v != 0
				}
			}
			if !moved {
				t.Fatal("DR left θ_0 at zero: nothing to compare")
			}
			continue
		}
		requireSameVector(t, "shared", want.State.Shared, got.State.Shared)
		for d := range want.State.Specific {
			requireSameVector(t, fmt.Sprintf("θ_%d at %d workers", d, workers), want.State.Specific[d], got.State.Specific[d])
		}
	}
}

// TestResumeWithoutCheckpointStartsFresh: Resume against an empty
// directory is not an error — there is simply nothing to restore.
func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	ds := testDataset(t)
	opts := chaosOptions()
	opts.Epochs = 1
	opts.CheckpointPath = filepath.Join(t.TempDir(), "ps.ckpt")
	opts.CheckpointEvery = 1
	opts.Resume = true
	res := Train(replicaFactory(ds), ds, opts)
	if res.ResumedFrom != -1 {
		t.Fatalf("ResumedFrom = %d, want -1 (fresh start)", res.ResumedFrom)
	}
	if _, err := os.Stat(opts.CheckpointPath); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
}
