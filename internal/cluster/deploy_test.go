package cluster

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"mamdr/internal/faultinject"
	"mamdr/internal/models"
	"mamdr/internal/ps"
)

// TestParseAddrs pins the one address grammar of -ps-addrs and -ps-serve:
// ',' between shards, '|' between the replicas of a shard, spaces trimmed,
// empty groups dropped.
func TestParseAddrs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want [][]string
	}{
		{"", nil},
		{" , ,| ", nil},
		{"a:1", [][]string{{"a:1"}}},
		{"a:1,b:2", [][]string{{"a:1"}, {"b:2"}}},
		{" a:1 , b:2 ", [][]string{{"a:1"}, {"b:2"}}},
		{"a0|a1,b0|b1", [][]string{{"a0", "a1"}, {"b0", "b1"}}},
		{"a0 | a1 ,, b0|", [][]string{{"a0", "a1"}, {"b0"}}},
		{"|a1,b0", [][]string{{"a1"}, {"b0"}}},
	} {
		if got := ParseAddrs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseAddrs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestDeploymentCloseReleasesGoroutines: a loopback deployment dials a
// client per (router, shard), each with a reader goroutine and a server
// connection goroutine on the other end. Close must release every one
// of them, the workers' routers included, and the listeners' accept
// loops.
func TestDeploymentCloseReleasesGoroutines(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)
	serving := factory()
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), models.EmbeddingTablesOf(serving)), 3, 7)

	before := runtime.NumGoroutine()
	dep, err := Deploy(serving.Parameters(), plan, ShardOptions{OuterOpt: "adagrad", OuterLR: 0.1}, Options{}, Placement{Loopback: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := deterministicOptions()
	opts.WrapStore = dep.WorkerStore
	ps.TrainWithStore(factory, serving, dep.Router, dep, ds, opts)
	during := runtime.NumGoroutine()
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before Deploy, %d before Close, %d two seconds after", before, during, after)
	}
}

// TestDeploymentCountersMatchInProcess: the traffic a deployment reports
// is counted once whatever its placement. Over loopback every worker
// trains through its own router under injected faults, and the sum over
// the routers equals what the one shared in-process router counts; the
// trained θ_S is bit-identical.
func TestDeploymentCountersMatchInProcess(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)
	run := func(at Placement) *ps.Result {
		serving := factory()
		plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), models.EmbeddingTablesOf(serving)), 3, 7)
		dep, err := Deploy(serving.Parameters(), plan, ShardOptions{OuterOpt: "adagrad", OuterLR: 0.1}, Options{}, at)
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Close()
		opts := deterministicOptions()
		opts.WrapStore = dep.WorkerStore
		res := ps.TrainWithStore(factory, serving, dep.Router, dep, ds, opts)
		if res.Counters != dep.Counters() {
			t.Fatalf("result counters %+v, deployment counters %+v", res.Counters, dep.Counters())
		}
		return res
	}

	local := run(Placement{})
	var injectors []*faultinject.Injector
	loopback := run(Placement{Loopback: true, Client: chaosClients(&injectors)})

	var injected int64
	for _, inj := range injectors {
		for _, n := range inj.Counts() {
			injected += n
		}
	}
	if injected == 0 {
		t.Fatal("fault schedule injected nothing; the test is vacuous")
	}
	if local.Counters.DensePulls == 0 || local.Counters.RowPulls == 0 {
		t.Fatalf("in-process run counted no traffic: %+v", local.Counters)
	}
	if local.Counters != loopback.Counters {
		t.Fatalf("traffic differs by placement:\nin process %+v\nloopback  %+v", local.Counters, loopback.Counters)
	}
	requireSameVector(t, "loopback vs in process", local.State.Shared, loopback.State.Shared)
}
