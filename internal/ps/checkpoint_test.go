package ps

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/core"
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
		a.SetCheckpointPath(path)
		a.PushDelta(ctx, checkpointDelta(1))
		a.PushDelta(ctx, checkpointDelta(2))
		if err := a.SaveCheckpoint(2); err != nil {
			t.Fatal(err)
		}

		var ck serverCheckpoint
		if err := core.LoadGob(path, &ck); err != nil {
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
		b.SetCheckpointPath(path)
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
	if err := core.SaveGob(path, striped); err != nil {
		t.Fatal(err)
	}
	s := NewServer(params, map[int]int{0: 0}, "adagrad", 0.1)
	s.SetCheckpointPath(path)
	before := s.Snapshot()
	_, err := s.LoadCheckpoint()
	if err == nil || !strings.Contains(err.Error(), "checkpoint has 2 shards, server has 1") {
		t.Fatalf("LoadCheckpoint of a two-stripe file = %v, want the shard-count refusal", err)
	}
	requireSameVector(t, "after a refused load", before, s.Snapshot())
}
