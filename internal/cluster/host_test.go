package cluster

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/ps"
	"mamdr/internal/telemetry"
)

// startHost serves n empty slots on loopback under o, as mamdr-train
// -ps-serve does, and returns their addresses, one shard each, and a
// stop function; the test's cleanup stops the host too.
func startHost(t *testing.T, n int, o ShardOptions) ([][]string, func()) {
	t.Helper()
	grid := make([][]string, n)
	for sh := range grid {
		grid[sh] = []string{"127.0.0.1:0"}
	}
	addrs, stop, err := Host(grid, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return addrs, stop
}

// hostFit trains opts over ds on the deployment at placement at: the
// shards carry opts' outer optimizer and spec.
// A refused resume is returned, not raised.
func hostFit(t *testing.T, ds *data.Dataset, opts ps.Options, spec framework.Spec, at Placement) (*ps.Result, error) {
	t.Helper()
	factory := replicaFactory(ds)
	serving := factory()
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), models.EmbeddingTablesOf(serving)), opts.Shards, opts.Seed)
	dep, err := Deploy(serving.Parameters(), plan, ShardOptions{
		OuterOpt: opts.OuterOpt, OuterLR: opts.OuterLR, Spec: spec,
	}, Options{}, at)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	opts.WrapStore = dep.WorkerStore
	var res *ps.Result
	err = framework.CatchResume(func() { res = ps.TrainWithStore(factory, serving, dep.Router, dep, ds, opts) })
	return res, err
}

// counterTotal sums a counter family's series in reg.
func counterTotal(reg *telemetry.Registry, name string) float64 {
	var sum float64
	for _, fam := range reg.Snapshot().Families {
		if fam.Name == name {
			for _, se := range fam.Series {
				sum += se.Value
			}
		}
	}
	return sum
}

// TestHostSessionsMatchInProcess: two sessions in a row against one
// host, 3 epochs and then 2, each train exactly what an in-process
// deployment of their own options trains. Each session's install
// replaces the last one's parameters, optimizer state and push
// sequences, so the second session's pushes (whose sequences restart
// at 1) all apply: the host discards none as duplicates.
func TestHostSessionsMatchInProcess(t *testing.T) {
	ds := testDataset(t)
	reg := telemetry.New()
	addrs, _ := startHost(t, 2, ShardOptions{Metrics: ps.NewMetrics(reg)})
	for _, epochs := range []int{3, 2} {
		opts := deterministicOptions()
		opts.Epochs = epochs
		host, _ := hostFit(t, ds, opts, framework.Spec{}, Placement{Addrs: addrs})
		local, _ := hostFit(t, ds, opts, framework.Spec{}, Placement{})
		requireSameVector(t, "host session vs in process", local.State.Shared, host.State.Shared)
		if host.Counters != local.Counters {
			t.Fatalf("%d epochs: host traffic %+v, in process %+v", epochs, host.Counters, local.Counters)
		}
	}
	if counterTotal(reg, "mamdr_ps_dense_pushes_total") == 0 {
		t.Fatal("the host applied no push; the check is vacuous")
	}
	if dup := counterTotal(reg, "mamdr_ps_duplicate_pushes_total"); dup != 0 {
		t.Fatalf("the host discarded %v pushes as duplicates", dup)
	}
}

// TestHostTakesTheTrainersOuterLR: the outer learning rate is the
// trainer's. A session at β = 0.2 against a bare host trains what the
// in-process fit at 0.2 trains, and not what the default β trains.
func TestHostTakesTheTrainersOuterLR(t *testing.T) {
	ds := testDataset(t)
	addrs, _ := startHost(t, 2, ShardOptions{})
	opts := deterministicOptions()
	opts.OuterOpt, opts.OuterLR = "", 0.2
	host, _ := hostFit(t, ds, opts, framework.Spec{}, Placement{Addrs: addrs})
	local, _ := hostFit(t, ds, opts, framework.Spec{}, Placement{})
	requireSameVector(t, "host at β=0.2 vs in process", local.State.Shared, host.State.Shared)
	opts.OuterLR = 0
	def, _ := hostFit(t, ds, opts, framework.Spec{}, Placement{})
	if def.State.Shared[0][0] == host.State.Shared[0][0] {
		t.Fatal("β=0.2 and the default β trained the same first parameter; the check is vacuous")
	}
}

// TestHostResumeRefusesAnotherLR: a host's shard files record the spec
// the trainer installed, so a resume with another α is refused, naming
// LR, by the live host and by a host restarted on the same directory.
// The run that wrote the files resumes to an uninterrupted run's θ_S.
func TestHostResumeRefusesAnotherLR(t *testing.T) {
	ds := testDataset(t)
	host := ShardOptions{CheckpointPath: filepath.Join(t.TempDir(), "ps.ckpt")}
	addrs, stop := startHost(t, 2, host)
	base := framework.Spec{Preset: "cluster-test", Seed: 9, Model: "mlp", EmbDim: 4}
	fit := func(opts ps.Options, resume bool) (*ps.Result, error) {
		opts.CheckpointEvery, opts.Resume = 1, resume
		return hostFit(t, ds, opts, opts.Config(base).RunSpec("dn"), Placement{Addrs: addrs})
	}
	twoEpochs := deterministicOptions()
	twoEpochs.Epochs = 2
	if _, err := fit(twoEpochs, false); err != nil {
		t.Fatal(err)
	}
	lr := twoEpochs
	lr.InnerLR = 0.05
	for _, restart := range []bool{false, true} {
		if restart {
			stop()
			addrs, _ = startHost(t, 2, host)
		}
		_, err := fit(lr, true)
		var re *framework.ResumeError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), "LR 0.05 (checkpoint 0.1)") {
			t.Fatalf("restarted=%v: resume with α=0.05: %v, want a *framework.ResumeError naming LR", restart, err)
		}
	}
	resumed, err := fit(deterministicOptions(), true)
	if err != nil || resumed.ResumedFrom != 2 {
		t.Fatalf("resume to 3 epochs: resumed from %v, %v; want 2, nil", resumed, err)
	}
	full, _ := hostFit(t, ds, deterministicOptions(), framework.Spec{}, Placement{})
	requireSameVector(t, "resumed on the host vs uninterrupted", full.State.Shared, resumed.State.Shared)
}

// TestHostRefusesCheckpointsWithoutPath: a session that checkpoints or
// resumes is refused by a host started without a checkpoint path — at
// install, before anything trains, naming -checkpoint-dir — instead of
// failing at its first checkpoint. The same session without
// checkpoints, or a host with a path, installs.
func TestHostRefusesCheckpointsWithoutPath(t *testing.T) {
	serving := replicaFactory(testDataset(t))()
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), models.EmbeddingTablesOf(serving)), 2, 1)
	deploy := func(addrs [][]string, checkpoint string) error {
		dep, err := Deploy(serving.Parameters(), plan, ShardOptions{CheckpointPath: checkpoint}, Options{}, Placement{Addrs: addrs})
		if err == nil {
			dep.Close()
		}
		return err
	}
	session := filepath.Join(t.TempDir(), "ps.ckpt")
	bare, _ := startHost(t, 2, ShardOptions{})
	if err := deploy(bare, session); err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("checkpointing session on a host without a checkpoint path: %v, want a refusal naming -checkpoint-dir", err)
	}
	if err := deploy(bare, ""); err != nil {
		t.Fatalf("session without checkpoints on a host without a checkpoint path: %v", err)
	}
	withPath, _ := startHost(t, 2, ShardOptions{CheckpointPath: filepath.Join(t.TempDir(), "ps.ckpt")})
	if err := deploy(withPath, session); err != nil {
		t.Fatalf("checkpointing session on a host with a checkpoint path: %v", err)
	}
}

// TestHostRefusesMalformedInstall: an install whose layout fails
// Validate, whose values name another tensor count or another tensor
// size, or whose optimizer is unknown is refused with an error, and the
// slot keeps serving what it had. A fixed shard server takes no install
// at all.
func TestHostRefusesMalformedInstall(t *testing.T) {
	addrs, _ := startHost(t, 1, ShardOptions{})
	install := func(addr string, a ps.InstallArgs) error {
		cl, err := ps.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		return cl.Install(a)
	}
	addr := addrs[0][0]
	good := ps.InstallArgs{
		Layout: ps.Layout{Rows: []int{4, 2}, Cols: []int{2, 3}, Field: []int{0, -1}},
		Values: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 5, 6}},
		Shards: 1,
	}
	if err := install(addr, good); err != nil {
		t.Fatal(err)
	}
	malformed := map[string]func(a *ps.InstallArgs){
		"invalid layout":    func(a *ps.InstallArgs) { a.Layout.Field = []int{0} },
		"tensor count":      func(a *ps.InstallArgs) { a.Values = a.Values[:1] },
		"values length":     func(a *ps.InstallArgs) { a.Values = [][]float64{a.Values[0], {1, 2, 3}} },
		"unknown optimizer": func(a *ps.InstallArgs) { a.OuterOpt = "rmsprop" },
	}
	for name, corrupt := range malformed {
		a := good
		corrupt(&a)
		if err := install(addr, a); err == nil {
			t.Errorf("%s: install accepted", name)
		}
	}
	cl, err := ps.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := good.Layout.Same(cl.Layout()); err != nil {
		t.Fatalf("after the refused installs the slot serves %v", err)
	}
	if got := cl.PullRows(context.Background(), 0, []int{3}); got[0][0] != 7 || got[0][1] != 8 {
		t.Fatalf("row 3 after the refused installs = %v, want [7 8]", got[0])
	}

	fixed := ps.NewServer([]*autograd.Tensor{autograd.Param(2, 3, make([]float64, 6))}, nil, "", 0)
	fixedAddrs, closeFixed, err := ServeTCP([][]*ps.Server{{fixed}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFixed()
	if err := install(fixedAddrs[0][0], good); err == nil {
		t.Fatal("a fixed shard server took an install")
	}
}
