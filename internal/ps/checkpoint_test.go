package ps

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/core"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
)

func checkpointParams() []*autograd.Tensor {
	params := []*autograd.Tensor{autograd.ParamZeros(6, 2), autograd.ParamZeros(2, 3), autograd.ParamZeros(1, 3)}
	for i, p := range params {
		for j := range p.Data {
			p.Data[j] = float64(i) + 0.25*float64(j)
		}
	}
	return params
}

func checkpointDelta(seq int64) Delta {
	return Delta{
		WorkerID: 1, Seq: seq,
		Dense:     map[int][]float64{1: {1, -2, 3, -4, 5, -6}, 2: {0.5, 0.25, -0.125}},
		Rows:      map[int][]int{0: {4, 1}},
		RowDeltas: map[int][][]float64{0: {{1, 2}, {-3, 4}}},
	}
}

// TestServerCheckpointKeepsItsShape: a server's file is a shard's
// core.Checkpoint — its tensors as Shared, no θ_i, and the outer
// optimizer's state under Outer, aligned with all tensors in index
// order — and a server restored from it continues float for float, the
// outer optimizer's state (Adam: moments and the step counter its
// tensors share) included.
func TestServerCheckpointKeepsItsShape(t *testing.T) {
	for _, outer := range []string{"sgd", "adagrad", "adam"} {
		path := filepath.Join(t.TempDir(), "ps.ckpt")
		ctx := context.Background()
		tables := map[int]int{0: 0}

		a := NewServer(checkpointParams(), tables, outer, 0.1)
		a.SetCheckpoint(path, framework.Spec{})
		a.PushDelta(ctx, checkpointDelta(1))
		a.PushDelta(ctx, checkpointDelta(2))
		if err := a.SaveCheckpoint(2); err != nil {
			t.Fatal(err)
		}

		ck, _, err := core.ReadState(path)
		if err == nil {
			err = ck.Decode(a.layout)
		}
		if err != nil {
			t.Fatal(err)
		}
		if ck.ModelName != shardRecord || len(ck.Shared) != 3 || len(ck.Specific) != 0 || ck.Epoch != 2 {
			t.Fatalf("%s: checkpoint %q holds %d tensors and %d θ_i, epoch %d; want %q, 3, 0, 2",
				outer, ck.ModelName, len(ck.Shared), len(ck.Specific), ck.Epoch, shardRecord)
		}
		if ck.Outer.Name != outer {
			t.Fatalf("%s: checkpoint carries %q optimizer state", outer, ck.Outer.Name)
		}
		for slot, bufs := range ck.Outer.Slots {
			if len(bufs) != 3 {
				t.Fatalf("%s: optimizer slot %q covers %d tensors, want all 3", outer, slot, len(bufs))
			}
		}

		b := NewServer(checkpointParams(), tables, outer, 0.1)
		b.SetCheckpoint(path, framework.Spec{})
		if epoch, err := b.LoadCheckpoint(); err != nil || epoch != 2 {
			t.Fatalf("%s: LoadCheckpoint = %d, %v; want 2, nil", outer, epoch, err)
		}
		requireSameVector(t, outer+" restored", a.Snapshot(), b.Snapshot())
		// Push sequences restart with the fresh workers of a resumed run.
		a.PushDelta(ctx, checkpointDelta(3))
		b.PushDelta(ctx, checkpointDelta(1))
		requireSameVector(t, outer+" after one more push", a.Snapshot(), b.Snapshot())
	}
}

// TestServerRefusesUnnamedShardFile: testdata/adagrad-shard-v5.ckpt is
// a shard file of the shape servers wrote before a shard file was a
// core.Checkpoint — checkpointParams after two pushes, their adagrad
// state in a one-element Shards slice that gob drops on the way into a
// core.Checkpoint. It names no record, so a server of its spec refuses
// it instead of restoring the parameters without their optimizer state,
// and is left as it was.
func TestServerRefusesUnnamedShardFile(t *testing.T) {
	s := NewServer(checkpointParams(), map[int]int{0: 0}, "adagrad", 0.1)
	s.SetCheckpoint(filepath.Join("testdata", "adagrad-shard-v5.ckpt"),
		framework.Spec{Preset: "taobao-10", Samples: 3000, Seed: 1, Model: "mlp", EmbDim: 8})
	before := s.Snapshot()
	if _, err := s.LoadCheckpoint(); err == nil || !strings.Contains(err.Error(), `checkpoint is for "", not "PS shard"`) {
		t.Fatalf("LoadCheckpoint of an unnamed shard file = %v, want the record-name refusal", err)
	}
	requireSameVector(t, "after a refused load", before, s.Snapshot())
}

// TestCoreAndShardFilesDoNotCross: a core state's file and a shard's
// file over the same tensors decode against each other's layout, so
// only the record's name tells them apart: a shard server refuses a
// State.Save file, whose θ_i it would drop, and State.Load refuses a
// shard's file, which holds no θ_i; neither refusal touches its target.
func TestCoreAndShardFilesDoNotCross(t *testing.T) {
	ds := testDataset(t)
	m := replicaFactory(ds)()
	dir := t.TempDir()
	st := &core.State{Model: m, Shared: paramvec.Snapshot(m.Parameters())}
	for range ds.Domains {
		st.AddDomain()
	}
	coreFile := filepath.Join(dir, "mamdr.ckpt")
	if err := st.Save(coreFile); err != nil {
		t.Fatal(err)
	}
	shardFile := filepath.Join(dir, ShardCheckpointPath("ps.ckpt", 0, 1))
	s := NewServer(m.Parameters(), models.EmbeddingTablesOf(m), "adagrad", 0.1)
	s.SetCheckpoint(shardFile, framework.Spec{})
	if err := s.SaveCheckpoint(1); err != nil {
		t.Fatal(err)
	}

	s.SetCheckpoint(coreFile, framework.Spec{})
	before := s.Snapshot()
	if _, err := s.LoadCheckpoint(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf(`checkpoint is for %q, not %q`, m.Name(), shardRecord)) {
		t.Fatalf("shard server loading a core file = %v, want the record-name refusal", err)
	}
	requireSameVector(t, "shard server after a refused load", before, s.Snapshot())

	loaded := &core.State{Model: replicaFactory(ds)()}
	if err := loaded.Load(shardFile); err == nil || !strings.Contains(err.Error(), fmt.Sprintf(`checkpoint is for %q, not %q`, shardRecord, m.Name())) {
		t.Fatalf("State.Load of a shard file = %v, want the record-name refusal", err)
	}
	if loaded.Shared != nil || loaded.Specific != nil {
		t.Fatal("State.Load took vectors from a refused shard file")
	}
}

// TestSpecRoundTrips: a shard server writes the spec of the run it hosts
// into its file, and a server of that spec restores it. A server of
// another spec is refused with the differing fields named, and so is a
// file that recorded no spec, with the advice to retrain; neither
// refusal touches the server. A server that hosts no spec (a library
// run) restores a file that recorded none.
func TestSpecRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), ShardCheckpointPath("ps.ckpt", 0, 1))
	spec := framework.Spec{Preset: "taobao-10", Samples: 3000, Seed: 1, Model: "mlp", EmbDim: 8}
	server := func(spec framework.Spec) *Server {
		s := NewServer(checkpointParams(), map[int]int{0: 0}, "adagrad", 0.1)
		s.SetCheckpoint(path, spec)
		return s
	}
	a := server(spec)
	a.PushDelta(context.Background(), checkpointDelta(1))
	if err := a.SaveCheckpoint(2); err != nil {
		t.Fatal(err)
	}
	ck, _, err := core.ReadState(path)
	if err == nil {
		err = ck.Decode(a.layout)
	}
	if err != nil || ck.Spec != spec {
		t.Fatalf("shard file records spec %+v (err %v), want %+v", ck.Spec, err, spec)
	}
	if epoch, err := server(spec).LoadCheckpoint(); err != nil || epoch != 2 {
		t.Fatalf("same spec: LoadCheckpoint = %d, %v; want 2, nil", epoch, err)
	}

	other := spec
	other.Samples, other.Seed = 2400, 9
	refused := server(other)
	before := refused.Snapshot()
	if _, err := refused.LoadCheckpoint(); err == nil || !strings.Contains(err.Error(), "Samples 2400 (checkpoint 3000)") ||
		!strings.Contains(err.Error(), "Seed 9 (checkpoint 1)") || strings.Contains(err.Error(), "Model") {
		t.Fatalf("another spec: LoadCheckpoint = %v, want a refusal naming Samples and Seed only", err)
	}
	requireSameVector(t, "after a refused load", before, refused.Snapshot())

	ck.Spec = framework.Spec{}
	if err := core.WriteCheckpoint(path, ck, a.layout); err != nil {
		t.Fatal(err)
	}
	if _, err := server(spec).LoadCheckpoint(); err == nil || !strings.Contains(err.Error(), "retrain") {
		t.Fatalf("file without a spec: LoadCheckpoint = %v, want a refusal that says to retrain", err)
	}
	if epoch, err := server(framework.Spec{}).LoadCheckpoint(); err != nil || epoch != 2 {
		t.Fatalf("no spec on either side: LoadCheckpoint = %d, %v; want 2, nil", epoch, err)
	}
}
