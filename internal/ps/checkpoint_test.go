package ps

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/core"
	"mamdr/internal/framework"
	"mamdr/internal/optim"
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

// TestServerCheckpointKeepsItsShape: the file of a server with one
// mutex and one optimizer is the file a one-stripe server wrote — one
// optimizer state under Shards, aligned with all tensors in index order
// — and a server restored from it continues float for float, the outer
// optimizer's state (Adam: moments and the step counter its tensors
// share) included.
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

		ck, err := a.readCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if len(ck.Shards) != 1 || len(ck.Params) != 3 || ck.Epoch != 2 {
			t.Fatalf("%s: checkpoint holds %d optimizer states, %d tensors, epoch %d; want 1, 3, 2",
				outer, len(ck.Shards), len(ck.Params), ck.Epoch)
		}
		for slot, bufs := range ck.Shards[0].Slots {
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

// TestServerRefusesStripedCheckpoint: a file carrying two optimizer
// states was written by a server with two lock stripes, each state over
// every other tensor. No server has stripes to restore them into, and
// loading the parameters without them would silently restart the outer
// optimizer, so the load is refused and the server is left as it was.
func TestServerRefusesStripedCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ps.ckpt")
	params := checkpointParams()
	striped := serverCheckpoint{Epoch: 3, Shards: []optim.State{{Name: "adagrad"}, {Name: "adagrad"}}}
	for _, p := range params {
		striped.Params = append(striped.Params, make([]float64, len(p.Data)))
	}
	if err := writeCheckpoint(path, core.LayoutOf(params, map[int]int{0: 0}), striped); err != nil {
		t.Fatal(err)
	}
	s := NewServer(params, map[int]int{0: 0}, "adagrad", 0.1)
	s.SetCheckpoint(path, framework.Spec{})
	before := s.Snapshot()
	_, err := s.LoadCheckpoint()
	if err == nil || !strings.Contains(err.Error(), "checkpoint has 2 shards, server has 1") {
		t.Fatalf("LoadCheckpoint of a two-stripe file = %v, want the shard-count refusal", err)
	}
	requireSameVector(t, "after a refused load", before, s.Snapshot())
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
	ck, err := a.readCheckpoint()
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
	if err := writeCheckpoint(path, a.vectorLayout(), ck); err != nil {
		t.Fatal(err)
	}
	if _, err := server(spec).LoadCheckpoint(); err == nil || !strings.Contains(err.Error(), "retrain") {
		t.Fatalf("file without a spec: LoadCheckpoint = %v, want a refusal that says to retrain", err)
	}
	if epoch, err := server(framework.Spec{}).LoadCheckpoint(); err != nil || epoch != 2 {
		t.Fatalf("no spec on either side: LoadCheckpoint = %d, %v; want 2, nil", epoch, err)
	}
}
