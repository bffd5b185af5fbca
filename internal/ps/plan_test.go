package ps

import (
	"reflect"
	"testing"

	"mamdr/internal/autograd"
)

func planTestLayout() (Layout, []*autograd.Tensor) {
	params := []*autograd.Tensor{
		autograd.ParamZeros(500, 4), // embedding, field 0
		autograd.ParamZeros(96, 8),  // wide dense
		autograd.ParamZeros(300, 6), // embedding, field 2
		autograd.ParamZeros(16, 8),  // dense
		autograd.ParamZeros(1, 8),   // dense
	}
	for i, p := range params {
		for j := range p.Data {
			p.Data[j] = float64(i*100000 + j) // recognizable values
		}
	}
	return LayoutOf(params, map[int]int{0: 0, 2: 2}), params
}

// TestPlanIsPureFunction pins the partition plan's core contract: the
// same (layout, shards, seed) always yields the same assignment, and a
// different seed yields a different row placement.
func TestPlanIsPureFunction(t *testing.T) {
	layout, _ := planTestLayout()
	a := NewPlan(layout, 4, 7)
	b := NewPlan(layout, 4, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans over identical inputs differ")
	}
	c := NewPlan(layout, 4, 8)
	if reflect.DeepEqual(a.rowShard, c.rowShard) {
		t.Fatal("changing the seed left every row in place; hashing ignores the seed")
	}
}

// TestPlanCoversEveryParameterExactlyOnce: every dense tensor has one
// owner, every embedding row has one owner, and the local-index maps are
// consistent with the per-shard layouts.
func TestPlanCoversEveryParameterExactlyOnce(t *testing.T) {
	layout, params := planTestLayout()
	p := NewPlan(layout, 3, 7)

	for t2 := 0; t2 < layout.NumTensors(); t2++ {
		if layout.IsTable(t2) {
			if p.ShardOfTensor(t2) != -1 {
				t.Fatalf("embedding tensor %d has a whole-tensor owner", t2)
			}
			seen := map[int]map[int]bool{} // shard -> local rows
			for r := 0; r < layout.Rows[t2]; r++ {
				sh := p.ShardOfRow(t2, r)
				if sh < 0 || sh >= 3 {
					t.Fatalf("row %d of tensor %d assigned to shard %d", r, t2, sh)
				}
				if seen[sh] == nil {
					seen[sh] = map[int]bool{}
				}
				lr := p.LocalRow(t2, r)
				if seen[sh][lr] {
					t.Fatalf("local row %d on shard %d assigned twice", lr, sh)
				}
				seen[sh][lr] = true
			}
		} else if sh := p.ShardOfTensor(t2); sh < 0 || sh >= 3 {
			t.Fatalf("dense tensor %d assigned to shard %d", t2, sh)
		}
	}

	// Per-shard layouts validate and the sliced parameters carry exactly
	// the rows the plan assigned, in ascending global order.
	totalElements := 0
	for sh := 0; sh < 3; sh++ {
		sub := p.ShardLayout(sh)
		if err := sub.Validate(-1); err != nil {
			t.Fatalf("shard %d sub-layout invalid: %v", sh, err)
		}
		shardParams := p.ShardParams(params, sh)
		if len(shardParams) != sub.NumTensors() {
			t.Fatalf("shard %d: %d params vs %d layout tensors", sh, len(shardParams), sub.NumTensors())
		}
		for local, gt := range p.ShardTensors(sh) {
			if p.LocalTensor(sh, gt) != local {
				t.Fatalf("LocalTensor(%d, %d) = %d, want %d", sh, gt, p.LocalTensor(sh, gt), local)
			}
			sp := shardParams[local]
			if !layout.IsTable(gt) {
				if !reflect.DeepEqual(sp.Data, params[gt].Data) {
					t.Fatalf("dense tensor %d corrupted on shard %d", gt, sh)
				}
				continue
			}
			cols := layout.Cols[gt]
			for localRow, globalRow := range p.ShardRows(sh, gt) {
				if p.LocalRow(gt, globalRow) != localRow {
					t.Fatalf("LocalRow(%d, %d) = %d, want %d", gt, globalRow, p.LocalRow(gt, globalRow), localRow)
				}
				want := params[gt].Data[globalRow*cols : (globalRow+1)*cols]
				got := sp.Data[localRow*cols : (localRow+1)*cols]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tensor %d row %d sliced wrong on shard %d: %v vs %v", gt, globalRow, sh, got, want)
				}
			}
		}
		totalElements += p.Elements(sh)
	}
	want := 0
	for _, pr := range params {
		want += len(pr.Data)
	}
	if totalElements != want {
		t.Fatalf("shards hold %d elements, model has %d", totalElements, want)
	}
}

// TestPlanBalancesShards: rendezvous hashing plus greedy dense placement
// should keep the largest shard within a loose factor of the mean.
func TestPlanBalancesShards(t *testing.T) {
	layout, _ := planTestLayout()
	p := NewPlan(layout, 4, 7)
	if imb := p.Imbalance(); imb < 1 || imb > 1.5 {
		t.Fatalf("imbalance = %.3f, want in [1, 1.5]", imb)
	}
}

// TestPlanSingleShardDegenerates: the 1-shard plan owns everything on
// shard 0 with identity row mapping — a Router over it is a plain PS.
func TestPlanSingleShardDegenerates(t *testing.T) {
	layout, params := planTestLayout()
	p := NewPlan(layout, 1, 7)
	if p.Imbalance() != 1 {
		t.Fatalf("1-shard imbalance = %v, want 1", p.Imbalance())
	}
	for t2 := 0; t2 < layout.NumTensors(); t2++ {
		if layout.IsTable(t2) {
			for r := 0; r < layout.Rows[t2]; r++ {
				if p.ShardOfRow(t2, r) != 0 || p.LocalRow(t2, r) != r {
					t.Fatalf("1-shard plan moved row %d of tensor %d", r, t2)
				}
			}
		} else if p.ShardOfTensor(t2) != 0 {
			t.Fatalf("1-shard plan moved dense tensor %d", t2)
		}
	}
	sub := p.ShardLayout(0)
	if !reflect.DeepEqual(sub, layout) {
		t.Fatalf("1-shard sub-layout differs from the global layout:\n%+v\n%+v", sub, layout)
	}
	sp := p.ShardParams(params, 0)
	for i := range params {
		if !reflect.DeepEqual(sp[i].Data, params[i].Data) {
			t.Fatalf("1-shard params differ at tensor %d", i)
		}
	}
}

// TestPlanMostRowsStayPutWhenScaling: rendezvous hashing's point is
// minimal movement — growing 3 shards to 4 should move roughly 1/4 of
// the rows, not reshuffle everything like modulo would.
func TestPlanMostRowsStayPutWhenScaling(t *testing.T) {
	layout, _ := planTestLayout()
	p3 := NewPlan(layout, 3, 7)
	p4 := NewPlan(layout, 4, 7)
	moved, total := 0, 0
	for t2 := 0; t2 < layout.NumTensors(); t2++ {
		if !layout.IsTable(t2) {
			continue
		}
		for r := 0; r < layout.Rows[t2]; r++ {
			total++
			if p3.ShardOfRow(t2, r) != p4.ShardOfRow(t2, r) {
				moved++
			}
		}
	}
	if frac := float64(moved) / float64(total); frac > 0.45 {
		t.Fatalf("scaling 3->4 shards moved %.0f%% of rows, want ~25%%", 100*frac)
	}
}

func TestShardCheckpointPath(t *testing.T) {
	if got := ShardCheckpointPath("/tmp/ps.ckpt", 2, 4); got != "/tmp/ps.ckpt.shard2of4" {
		t.Fatalf("ShardCheckpointPath = %q", got)
	}
}
