package cluster

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/ps"
	"mamdr/internal/synth"
)

func testDataset(t testing.TB) *data.Dataset {
	t.Helper()
	return synth.Generate(synth.Config{
		Name: "cluster-test", Seed: 51, ConflictStrength: 0.8,
		Domains: []synth.DomainSpec{
			{Name: "a", Samples: 500, CTRRatio: 0.3},
			{Name: "b", Samples: 400, CTRRatio: 0.4},
			{Name: "c", Samples: 300, CTRRatio: 0.25},
			{Name: "d", Samples: 200, CTRRatio: 0.35},
		},
	})
}

func replicaFactory(ds *data.Dataset) func() models.Model {
	return func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Seed: 5})
	}
}

// deterministicOptions mirrors the ps chaos suite's configuration:
// SyncPush fixes the delta-apply order, so two runs that should agree
// must agree float for float.
func deterministicOptions() ps.Options {
	return ps.Options{
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

// newLocalFor partitions a fresh serving model across shards and wires
// the in-process cluster the tests train against.
func newLocalFor(serving models.Model, shards, replicas int, so ShardOptions) *Local {
	tables := models.EmbeddingTablesOf(serving)
	layout := ps.LayoutOf(serving.Parameters(), tables)
	plan := ps.NewPlan(layout, shards, 7)
	so.Replicas = replicas
	return NewLocal(serving.Parameters(), plan, so, Options{})
}

// TestClusterTrainingBitIdenticalAcrossShardCounts is the tentpole
// property: the partition plan is a pure function of the layout, every
// shard applies the same elementwise updates a single server would, and
// SyncPush fixes the apply order — so training against 1 shard and
// against 4 shards produces exactly the same parameters, and the
// router's logical counters match the single server's numbers.
func TestClusterTrainingBitIdenticalAcrossShardCounts(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)

	clean := ps.Train(factory, ds, deterministicOptions())

	run := func(shards int) *ps.Result {
		serving := factory()
		local := newLocalFor(serving, shards, 1, ShardOptions{OuterOpt: "adagrad", OuterLR: 0.1})
		return ps.TrainWithStore(factory, serving, local.Router, local.Router, ds, deterministicOptions())
	}
	one := run(1)
	four := run(4)

	requireSameVector(t, "1-shard cluster vs single server", clean.State.Shared, one.State.Shared)
	requireSameVector(t, "4-shard cluster vs single server", clean.State.Shared, four.State.Shared)

	// The router reports logical traffic, so the sharded run's
	// synchronization-overhead numbers are comparable to the single
	// server's.
	if clean.Counters != four.Counters {
		t.Fatalf("logical counters diverge:\nsingle  %+v\n4-shard %+v", clean.Counters, four.Counters)
	}
}

// TestRouterMatchesSingleServerOps drives the Store surface directly —
// interleaved pulls and pushes — against a 3-shard router and a plain
// server, and requires identical replies throughout.
func TestRouterMatchesSingleServerOps(t *testing.T) {
	params := []*autograd.Tensor{
		autograd.ParamZeros(200, 4), // embedding, field 0
		autograd.ParamZeros(24, 8),  // dense
		autograd.ParamZeros(150, 6), // embedding, field 1
		autograd.ParamZeros(1, 8),   // dense
	}
	for i, p := range params {
		for j := range p.Data {
			p.Data[j] = float64(i*1000 + j)
		}
	}
	tables := map[int]int{0: 0, 2: 1}
	single := ps.NewServer(params, tables, "adagrad", 0.5)
	plan := ps.NewPlan(ps.LayoutOf(params, tables), 3, 7)
	local := NewLocal(params, plan, ShardOptions{OuterOpt: "adagrad", OuterLR: 0.5}, Options{})

	ctx := context.Background()
	rows0 := []int{5, 199, 0, 42, 7, 5} // duplicates and out-of-order on purpose
	rows2 := []int{149, 3, 80}
	delta := func(seq int64) ps.Delta {
		wide := make([]float64, 24*8)
		for i := range wide {
			wide[i] = float64(seq)
		}
		return ps.Delta{
			WorkerID: 1, Seq: seq,
			Dense: map[int][]float64{1: wide, 3: {1, 2, 3, 4, 5, 6, 7, 8}},
			Rows:  map[int][]int{0: {5, 42}, 2: {149}},
			RowDeltas: map[int][][]float64{
				0: {{1, 1, 1, 1}, {2, 2, 2, 2}},
				2: {{3, 3, 3, 3, 3, 3}},
			},
		}
	}
	for seq := int64(1); seq <= 3; seq++ {
		single.PushDelta(ctx, delta(seq))
		local.Router.PushDelta(ctx, delta(seq))
		// Re-sending the same seq must be a no-op on every shard.
		local.Router.PushDelta(ctx, delta(seq))

		compareDense(t, single.PullDense(ctx), local.Router.PullDense(ctx))
		compareRows(t, single.PullRows(ctx, 0, rows0), local.Router.PullRows(ctx, 0, rows0))
		compareRows(t, single.PullRows(ctx, 2, rows2), local.Router.PullRows(ctx, 2, rows2))
	}

	// The reassembled snapshot matches the single server's too.
	requireSameVector(t, "snapshot", single.Snapshot(), local.Snapshot())
}

func compareDense(t *testing.T, want, got map[int][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("dense pull returned %d tensors, want %d", len(got), len(want))
	}
	for tensor, w := range want {
		g, ok := got[tensor]
		if !ok {
			t.Fatalf("dense pull missing tensor %d", tensor)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("dense tensor %d[%d] = %g, want %g", tensor, i, g[i], w[i])
			}
		}
	}
}

func compareRows(t *testing.T, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row pull returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("row %d[%d] = %g, want %g", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestNewRejectsMismatchedEndpoints: a shard serving the wrong slice of
// the parameter space must be rejected at construction, not discovered
// as a training desync.
func TestNewRejectsMismatchedEndpoints(t *testing.T) {
	params := []*autograd.Tensor{
		autograd.ParamZeros(120, 4),
		autograd.ParamZeros(8, 8),
	}
	tables := map[int]int{0: 0}
	layout := ps.LayoutOf(params, tables)
	plan := ps.NewPlan(layout, 2, 7)
	other := ps.NewPlan(layout, 2, 8) // different seed -> different slices

	good := Shards(params, plan, ShardOptions{})
	bad := Shards(params, other, ShardOptions{})

	if _, err := New(plan, [][]ps.Store{{bad[0][0]}, {bad[1][0]}}, Options{}); err == nil {
		t.Fatal("router accepted endpoints partitioned under a different plan")
	}
	if _, err := New(plan, [][]ps.Store{{good[0][0]}}, Options{}); err == nil {
		t.Fatal("router accepted too few endpoint groups")
	}
	if _, err := New(plan, [][]ps.Store{{good[0][0]}, {}}, Options{}); err == nil {
		t.Fatal("router accepted a shard with no endpoints")
	}
	if _, err := New(plan, [][]ps.Store{{good[0][0]}, {good[1][0]}}, Options{}); err != nil {
		t.Fatalf("router rejected matching endpoints: %v", err)
	}
}

// TestClusterCheckpointRoundTrip: every shard persists its slice to its
// own file, a fresh cluster restores from them, and mixed per-shard
// epochs are rejected as a torn checkpoint.
func TestClusterCheckpointRoundTrip(t *testing.T) {
	params := []*autograd.Tensor{
		autograd.ParamZeros(120, 4),
		autograd.ParamZeros(8, 8),
	}
	for i, p := range params {
		for j := range p.Data {
			p.Data[j] = float64(i + j)
		}
	}
	tables := map[int]int{0: 0}
	plan := ps.NewPlan(ps.LayoutOf(params, tables), 3, 7)
	base := filepath.Join(t.TempDir(), "cluster.ckpt")
	so := ShardOptions{OuterOpt: "adagrad", OuterLR: 0.5, CheckpointPath: base}

	local := NewLocal(params, plan, so, Options{})
	if epoch, err := local.Router.LoadCheckpoint(); err != nil || epoch != -1 {
		t.Fatalf("fresh cluster LoadCheckpoint = (%d, %v), want (-1, nil)", epoch, err)
	}

	local.Router.PushDelta(context.Background(), ps.Delta{
		Dense: map[int][]float64{1: {1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2,
			3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4,
			5, 5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6,
			7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8}},
		Rows:      map[int][]int{0: {3, 77, 119}},
		RowDeltas: map[int][][]float64{0: {{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}},
	})
	want := local.Snapshot()
	if err := local.Router.SaveCheckpoint(2); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	restored := NewLocal(params, plan, so, Options{})
	epoch, err := restored.Router.LoadCheckpoint()
	if err != nil || epoch != 2 {
		t.Fatalf("LoadCheckpoint = (%d, %v), want (2, nil)", epoch, err)
	}
	requireSameVector(t, "restored cluster", want, restored.Snapshot())

	// Tear the checkpoint: one shard re-saves at a later epoch. The
	// cluster must refuse to restore from mixed epochs.
	if err := restored.Servers[1][0].SaveCheckpoint(5); err != nil {
		t.Fatal(err)
	}
	torn := NewLocal(params, plan, so, Options{})
	if _, err := torn.Router.LoadCheckpoint(); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn checkpoint not rejected: %v", err)
	}
}

// TestResumeRefusesAnotherSpec: a cluster resumed under another spec than
// the one its shard files recorded — another dataset (its sample count
// and seed), or another model over the same one — makes TrainWithStore
// panic with a *framework.ResumeError naming the fields that differ,
// before any file is checked against a shard's tensors. Under the spec
// that wrote them, the files resume.
func TestResumeRefusesAnotherSpec(t *testing.T) {
	base := filepath.Join(t.TempDir(), "ps.ckpt")
	fit := func(spec framework.Spec, resume bool) error {
		ds := synth.Generate(synth.Presets(spec.Samples, spec.Seed)[spec.Preset])
		factory := func() models.Model {
			return models.MustNew(spec.Model, models.Config{Dataset: ds, EmbDim: spec.EmbDim, Seed: spec.Seed})
		}
		serving := factory()
		local := newLocalFor(serving, 2, 1, ShardOptions{OuterOpt: "adagrad", OuterLR: 0.1, CheckpointPath: base, Spec: spec})
		opts := deterministicOptions()
		opts.Epochs, opts.CheckpointEvery, opts.Resume = 1, 1, resume
		return framework.CatchResume(func() { ps.TrainWithStore(factory, serving, local.Router, local.Router, ds, opts) })
	}
	saved := framework.Spec{Preset: "amazon-6", Samples: 3000, Seed: 1, Model: "mlp", EmbDim: 8}
	if err := fit(saved, false); err != nil {
		t.Fatal(err)
	}
	other := saved
	other.Samples, other.Seed = 2400, 9
	wdl := saved
	wdl.Model = "wdl"
	for _, tc := range []struct {
		spec    framework.Spec
		differs []string
	}{{other, []string{"Samples", "Seed"}}, {wdl, []string{"Model"}}} {
		err := fit(tc.spec, true)
		var re *framework.ResumeError
		if !errors.As(err, &re) {
			t.Fatalf("resume as %+v: %v, want a *framework.ResumeError", tc.spec, err)
		}
		for _, field := range []string{"Preset", "Samples", "Seed", "Model", "EmbDim"} {
			if named, want := strings.Contains(err.Error(), field+" "), slices.Contains(tc.differs, field); named != want {
				t.Errorf("resume as %+v: %q names %s: %v, want %v", tc.spec, err, field, named, want)
			}
		}
	}
	if err := fit(saved, true); err != nil {
		t.Fatalf("resume under the spec that wrote the files: %v", err)
	}
}
