package cluster

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mamdr/internal/autograd"
	"mamdr/internal/faultinject"
	"mamdr/internal/models"
	"mamdr/internal/ps"
	"mamdr/internal/telemetry"
)

// killAfter wraps one shard replica and simulates a server death: after
// `calls` data operations every further call panics, exactly as a
// ps.Client whose server vanished does once its retries are exhausted.
type killAfter struct {
	base      ps.Store
	remaining int64
}

func (k *killAfter) tick() {
	if atomic.AddInt64(&k.remaining, -1) < 0 {
		panic("chaos: injected shard-server death")
	}
}

func (k *killAfter) Layout() ps.Layout { return k.base.Layout() }
func (k *killAfter) PullDense(ctx context.Context) map[int][]float64 {
	k.tick()
	return k.base.PullDense(ctx)
}
func (k *killAfter) PullRows(ctx context.Context, tensor int, rows []int) [][]float64 {
	k.tick()
	return k.base.PullRows(ctx, tensor, rows)
}
func (k *killAfter) PushDelta(ctx context.Context, d ps.Delta) {
	k.tick()
	k.base.PushDelta(ctx, d)
}

// TestShardFailoverMatchesCleanRun is the replicated-shard guarantee:
// with two replicas per shard, one shard's primary dying mid-training
// fails reads over to the backup — which saw every broadcast write, so
// it holds bit-identical state — and the run's final parameters match a
// clean single-server run exactly.
func TestShardFailoverMatchesCleanRun(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)
	clean := ps.Train(factory, ds, deterministicOptions())

	serving := factory()
	tables := models.EmbeddingTablesOf(serving)
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), tables), 3, 7)
	servers := Shards(serving.Parameters(), plan, ShardOptions{
		Replicas: 2, OuterOpt: "adagrad", OuterLR: 0.1,
	})

	reg := telemetry.New()
	stores := make([][]ps.Store, len(servers))
	for sh, reps := range servers {
		for rep, srv := range reps {
			var ep ps.Store = srv
			if sh == 0 && rep == 0 {
				ep = &killAfter{base: srv, remaining: 40} // dies mid-epoch
			}
			stores[sh] = append(stores[sh], ep)
		}
	}
	router, err := New(plan, stores, Options{Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}

	res := ps.TrainWithStore(factory, serving, router, router, ds, deterministicOptions())

	if res.WorkerDeaths != 0 {
		t.Fatalf("failover leaked into worker deaths: %d", res.WorkerDeaths)
	}
	if got := router.LiveReplicas(0); got != 1 {
		t.Fatalf("shard 0 has %d live replicas, want 1 (primary condemned)", got)
	}
	requireSameVector(t, "failover vs clean", clean.State.Shared, res.State.Shared)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	expo := buf.String()
	for _, series := range []string{
		`mamdr_cluster_shard_failures_total{shard="0"} 1`,
		`mamdr_cluster_failovers_total{shard="0"}`,
	} {
		if !strings.Contains(expo, series) {
			t.Fatalf("telemetry missing %q; exposition:\n%s", series, expo)
		}
	}
}

// TestShardLossWithoutReplicaFailsLoudly: with a single replica, losing
// a shard means a slice of the model is gone — the router must panic,
// never serve a partial parameter space.
func TestShardLossWithoutReplicaFailsLoudly(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(120, 4), autograd.ParamZeros(8, 8)}
	tables := map[int]int{0: 0}
	plan := ps.NewPlan(ps.LayoutOf(params, tables), 2, 7)
	servers := Shards(params, plan, ShardOptions{})
	stores := [][]ps.Store{
		{&killAfter{base: servers[0][0], remaining: 0}},
		{servers[1][0]},
	}
	router, err := New(plan, stores, Options{})
	if err != nil {
		t.Fatal(err)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("router served a pull with a dead, unreplicated shard")
		}
		if msg, ok := r.(error); !ok || !strings.Contains(msg.Error(), "failed on every replica") {
			t.Fatalf("panic does not name the exhausted shard: %v", r)
		}
	}()
	// Pull every embedding row: rendezvous hashing spreads them over
	// both shards, so the dead shard is guaranteed to be involved.
	rows := make([]int, 120)
	for i := range rows {
		rows[i] = i
	}
	router.PullRows(context.Background(), 0, rows)
}

// chaosClients is the Placement.Client of the loopback chaos tests:
// every worker's client of every shard gets its own seeded injector
// (failed pushes and dense pulls, delayed row pulls, two dropped
// connections) and a retry budget that outlasts it, appended to
// *injectors; the base router's clients run clean.
func chaosClients(injectors *[]*faultinject.Injector) func(workerID, sh, rep int, cl *ps.Client) {
	return func(workerID, sh, rep int, cl *ps.Client) {
		if workerID < 0 {
			return
		}
		seed := int64(workerID*10 + sh)
		cl.SetBackoff(ps.Backoff{Attempts: 30, Base: time.Millisecond, Max: 4 * time.Millisecond, Seed: seed})
		inj := faultinject.MustParse(
			"PushDelta:err@p0.1; PullDense:err@p0.1; PullRows:delay=1ms@p0.05; conn:drop@4,9", seed)
		cl.SetInjector(inj)
		*injectors = append(*injectors, inj)
	}
}

// TestClusterChaosOverRPCBitIdentical is the sharded analogue of the ps
// package's headline chaos test: a 2-worker run against a 3-shard
// cluster over real sockets, each worker dialing every shard through
// its own fault-injected client, converges bit-identically to a clean
// single-server in-process run. Per-shard retries are idempotent
// because every split delta part carries the worker's (WorkerID, Seq)
// token and each shard server deduplicates independently.
func TestClusterChaosOverRPCBitIdentical(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)
	clean := ps.Train(factory, ds, deterministicOptions())

	serving := factory()
	tables := models.EmbeddingTablesOf(serving)
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), tables), 3, 7)
	var injectors []*faultinject.Injector
	dep, err := Deploy(serving.Parameters(), plan, ShardOptions{OuterOpt: "adagrad", OuterLR: 0.1}, Options{}, Placement{
		Loopback: true,
		Client:   chaosClients(&injectors),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	opts := deterministicOptions()
	opts.WrapStore = dep.WorkerStore
	faulty := ps.TrainWithStore(factory, serving, dep.Router, dep, ds, opts)

	var injected int64
	for _, inj := range injectors {
		for _, n := range inj.Counts() {
			injected += n
		}
	}
	if injected == 0 {
		t.Fatal("fault schedule injected nothing; the test is vacuous")
	}
	t.Logf("injected %d faults across %d shard clients; comparing final parameters", injected, len(injectors))
	requireSameVector(t, "cluster chaos vs clean", clean.State.Shared, faulty.State.Shared)
}
