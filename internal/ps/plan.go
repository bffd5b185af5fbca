package ps

import (
	"fmt"
	"sort"

	"mamdr/internal/autograd"
)

// Plan deterministically partitions a Layout across NumShards parameter
// server shards — the multi-PS deployment of Section IV-E ("the model is
// stored on parameter servers", 40 of them in the paper's industrial
// setup). It is a pure function of (Layout, NumShards, Seed):
//
//   - embedding rows are assigned individually by rendezvous hashing on
//     (tensor, row), so the sparse tables that dominate model size
//     spread evenly across shards and most rows stay put when the shard
//     count changes;
//   - dense tensors are assigned whole to shards, largest first onto the
//     least-loaded shard (counting the embedding rows already placed),
//     so per-shard element counts balance.
//
// Because every shard applies the same elementwise updates to its slice
// that a single server would (SGD rows, per-tensor outer-optimizer
// state), training over a Plan is bit-identical across shard counts for
// the sgd and adagrad outer optimizers. (Adam couples the tensors of
// one optimizer through its shared step counter, so its trajectory
// depends on which tensors share a server.)
type Plan struct {
	Layout    Layout
	NumShards int
	Seed      int64

	// TensorShard[t] is the owning shard of dense tensor t, or -1 for
	// embedding tensors, whose rows are assigned individually.
	TensorShard []int

	// rowShard[t][r] is the owning shard of row r of embedding tensor t
	// (nil for dense tensors); localRow[t][r] is that row's index within
	// the owning shard's sub-table.
	rowShard [][]int32
	localRow [][]int32

	// shardTensors[sh] lists the global tensor indices present on shard
	// sh in ascending order — the shard's local tensor order.
	// localTensor[sh][t] inverts it (-1 when absent).
	shardTensors [][]int
	localTensor  [][]int

	// shardRowCount[sh][t] is how many rows of embedding tensor t live
	// on shard sh; elements[sh] is the shard's total element count.
	shardRowCount [][]int
	elements      []int
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed 64-bit
// hash used for rendezvous row assignment.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rendezvous returns the shard maximizing hash(seed, tensor, row, shard)
// — ties broken toward the lower shard index, so the assignment is a
// total deterministic function.
func rendezvous(seed int64, tensor, row, numShards int) int {
	best, bestH := 0, uint64(0)
	base := splitmix64(uint64(seed)) ^ splitmix64(uint64(tensor)<<32|uint64(uint32(row)))
	for sh := 0; sh < numShards; sh++ {
		h := splitmix64(base ^ splitmix64(uint64(sh)+0x6a09e667f3bcc909))
		if sh == 0 || h > bestH {
			best, bestH = sh, h
		}
	}
	return best
}

// NewPlan partitions layout across numShards shards. It panics on an
// invalid layout (the same contract as NewServer — an unpartitionable
// layout is a bug, not a recoverable condition). numShards < 1 is
// clamped to 1; the 1-shard plan assigns everything to shard 0 and a
// Router over it degenerates to a plain single-server deployment.
func NewPlan(layout Layout, numShards int, seed int64) Plan {
	if err := layout.Validate(-1); err != nil {
		panic(err)
	}
	if numShards < 1 {
		numShards = 1
	}
	n := layout.NumTensors()
	p := Plan{
		Layout:        layout,
		NumShards:     numShards,
		Seed:          seed,
		TensorShard:   make([]int, n),
		rowShard:      make([][]int32, n),
		localRow:      make([][]int32, n),
		shardRowCount: make([][]int, numShards),
		elements:      make([]int, numShards),
	}
	for sh := 0; sh < numShards; sh++ {
		p.shardRowCount[sh] = make([]int, n)
	}

	// Embedding rows first: rendezvous-hash each (tensor, row) and
	// record its local index as the rank among its shard's rows.
	for t := 0; t < n; t++ {
		if !layout.IsTable(t) {
			continue
		}
		p.TensorShard[t] = -1
		rows, cols := layout.Rows[t], layout.Cols[t]
		p.rowShard[t] = make([]int32, rows)
		p.localRow[t] = make([]int32, rows)
		for r := 0; r < rows; r++ {
			sh := rendezvous(seed, t, r, numShards)
			p.rowShard[t][r] = int32(sh)
			p.localRow[t][r] = int32(p.shardRowCount[sh][t])
			p.shardRowCount[sh][t]++
			p.elements[sh] += cols
		}
	}

	// Dense tensors: largest first onto the least-loaded shard, ties
	// toward the lower index — deterministic greedy balancing.
	type denseT struct{ t, size int }
	var dense []denseT
	for t := 0; t < n; t++ {
		if !layout.IsTable(t) {
			dense = append(dense, denseT{t, layout.Rows[t] * layout.Cols[t]})
		}
	}
	sort.SliceStable(dense, func(i, j int) bool {
		if dense[i].size != dense[j].size {
			return dense[i].size > dense[j].size
		}
		return dense[i].t < dense[j].t
	})
	for _, d := range dense {
		best := 0
		for sh := 1; sh < numShards; sh++ {
			if p.elements[sh] < p.elements[best] {
				best = sh
			}
		}
		p.TensorShard[d.t] = best
		p.elements[best] += d.size
	}

	// Per-shard tensor presence and the local index mapping.
	p.shardTensors = make([][]int, numShards)
	p.localTensor = make([][]int, numShards)
	for sh := 0; sh < numShards; sh++ {
		p.localTensor[sh] = make([]int, n)
		for t := 0; t < n; t++ {
			p.localTensor[sh][t] = -1
			present := false
			if layout.IsTable(t) {
				present = p.shardRowCount[sh][t] > 0
			} else {
				present = p.TensorShard[t] == sh
			}
			if present {
				p.localTensor[sh][t] = len(p.shardTensors[sh])
				p.shardTensors[sh] = append(p.shardTensors[sh], t)
			}
		}
	}
	return p
}

// ShardOfRow returns the shard owning row r of embedding tensor t.
func (p *Plan) ShardOfRow(t, r int) int { return int(p.rowShard[t][r]) }

// LocalRow returns row r's index within its owning shard's sub-table.
func (p *Plan) LocalRow(t, r int) int { return int(p.localRow[t][r]) }

// ShardOfTensor returns the shard owning dense tensor t (-1 for
// embedding tensors).
func (p *Plan) ShardOfTensor(t int) int { return p.TensorShard[t] }

// ShardTensors returns the global tensor indices present on shard sh,
// ascending — index i of the slice is the shard's local tensor i.
func (p *Plan) ShardTensors(sh int) []int { return p.shardTensors[sh] }

// LocalTensor returns global tensor t's local index on shard sh, or -1
// when the shard holds none of it.
func (p *Plan) LocalTensor(sh, t int) int { return p.localTensor[sh][t] }

// ShardRows returns the global rows of embedding tensor t owned by
// shard sh, ascending — index i of the slice is local row i.
func (p *Plan) ShardRows(sh, t int) []int {
	if p.shardRowCount[sh][t] == 0 {
		return nil
	}
	out := make([]int, 0, p.shardRowCount[sh][t])
	for r, owner := range p.rowShard[t] {
		if int(owner) == sh {
			out = append(out, r)
		}
	}
	return out
}

// ShardLayout builds shard sh's sub-layout: owned dense tensors whole,
// embedding sub-tables holding only the shard's rows. Tensors absent
// from the shard are omitted, so the sub-layout always validates.
func (p *Plan) ShardLayout(sh int) Layout {
	var l Layout
	for _, t := range p.shardTensors[sh] {
		rows := p.Layout.Rows[t]
		if p.Layout.IsTable(t) {
			rows = p.shardRowCount[sh][t]
		}
		l.Rows = append(l.Rows, rows)
		l.Cols = append(l.Cols, p.Layout.Cols[t])
		l.Field = append(l.Field, p.Layout.Field[t])
	}
	return l
}

// ShardTables returns shard sh's embedding classification in local
// tensor indices — what NewServer takes for the shard's sub-parameters.
func (p *Plan) ShardTables(sh int) map[int]int {
	tables := map[int]int{}
	for local, t := range p.shardTensors[sh] {
		if p.Layout.IsTable(t) {
			tables[local] = p.Layout.Field[t]
		}
	}
	return tables
}

// ShardParams slices the full parameter list down to shard sh's
// sub-parameters (fresh copies): owned dense tensors whole, embedding
// sub-tables gathering the shard's rows in ascending global-row order.
func (p *Plan) ShardParams(params []*autograd.Tensor, sh int) []*autograd.Tensor {
	if len(params) != p.Layout.NumTensors() {
		panic(fmt.Sprintf("ps: plan manages %d tensors, got %d parameters", p.Layout.NumTensors(), len(params)))
	}
	var out []*autograd.Tensor
	for _, t := range p.shardTensors[sh] {
		src := params[t]
		if !p.Layout.IsTable(t) {
			out = append(out, autograd.Param(src.Rows, src.Cols, append([]float64(nil), src.Data...)))
			continue
		}
		cols := src.Cols
		data := make([]float64, 0, p.shardRowCount[sh][t]*cols)
		for _, r := range p.ShardRows(sh, t) {
			data = append(data, src.Data[r*cols:(r+1)*cols]...)
		}
		out = append(out, autograd.Param(p.shardRowCount[sh][t], cols, data))
	}
	return out
}

// Elements returns shard sh's total element count.
func (p *Plan) Elements(sh int) int { return p.elements[sh] }

// Imbalance is the load-balance figure of merit: the largest shard's
// element count over the mean (1.0 = perfectly balanced), as the plan's
// String reports it.
func (p *Plan) Imbalance() float64 {
	max, total := 0, 0
	for _, e := range p.elements {
		total += e
		if e > max {
			max = e
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(p.NumShards) / float64(total)
}

// String summarizes the plan for logs.
func (p *Plan) String() string {
	return fmt.Sprintf("ps.Plan{%d tensors -> %d shards, seed %d, imbalance %.3f}",
		p.Layout.NumTensors(), p.NumShards, p.Seed, p.Imbalance())
}

// ShardCheckpointPath derives the checkpoint path of shard sh in a
// cluster of `of` shards from the cluster's base path, so every shard
// of a partitioned deployment persists next to where a single server
// would ("ps.ckpt" -> "ps.ckpt.shard0of4", ...).
func ShardCheckpointPath(base string, sh, of int) string {
	return fmt.Sprintf("%s.shard%dof%d", base, sh, of)
}
