// Package cluster partitions the parameter server across N shards — the
// paper's Section IV-E deployment, where "the model is stored on
// parameter servers" (plural; 40 in the industrial setup) rather than
// one machine. A ps.Plan assigns every embedding row (rendezvous
// hashing on (tensor, row)) and every dense tensor (element-balanced)
// to a shard, each shard is an ordinary ps.Server over its slice, and a
// Router in front of them implements the ps.Store interface — so
// Worker, Trainer, checkpointing, and chaos tooling run unchanged
// against 1 or N shards, in-process or across N sockets.
//
// The router fans every call out scatter-gather, one goroutine per
// shard involved: pulls split per shard and merge into one reply, pushes
// split the delta per shard before sending. Each shard endpoint keeps
// its own retry/backoff/idempotent-push-token machinery (ps.Client), so
// one slow or faulty shard degrades — and ultimately fails over or
// fails loudly — without corrupting the others. With replicated shards
// (R endpoints per partition) writes broadcast to every live replica
// and reads fail over past condemned ones, so training survives a
// shard-server death and, in deterministic SyncPush mode, still matches
// the clean run bit for bit.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mamdr/internal/paramvec"
	"mamdr/internal/ps"
	"mamdr/internal/trace"
)

// Options configures a Router.
type Options struct {
	// Metrics, when non-nil, records per-shard latency/volume/failover
	// series and the plan's imbalance gauge.
	Metrics *Metrics
	// Tracer, when non-nil, receives shard_failover flight-recorder
	// triggers; fan-out spans parent to the caller's context regardless.
	Tracer *trace.Tracer
}

// Router fronts a partitioned parameter-server cluster. It implements
// ps.Store (and ps.CheckpointStore), so everything written against a
// single parameter server drives a sharded one unchanged.
type Router struct {
	plan   ps.Plan
	shards [][]ps.Store // [shard][replica]
	dead   [][]atomic.Bool

	metrics *Metrics
	tracer  *trace.Tracer

	// denseShards lists shards holding at least one dense tensor — the
	// fan-out set of PullDense.
	denseShards []int

	// counters tallies logical (router-level) traffic with the same
	// semantics as a single ps.Server, so sharded and unsharded runs
	// report comparable numbers.
	counters struct {
		densePulls, densePushes, rowPulls, rowPushes, floats int64
	}
}

var _ ps.Store = (*Router)(nil)
var _ ps.CheckpointStore = (*Router)(nil)

// New builds a Router over the plan's shard endpoints: shards[sh] lists
// the replicas serving partition sh (index 0 is the preferred primary).
// Every endpoint's layout is verified shape-for-shape against the
// plan's sub-layout — a shard serving the wrong slice would silently
// desync training, so a mismatch is an error here, not later.
func New(plan ps.Plan, shards [][]ps.Store, opts Options) (*Router, error) {
	if len(shards) != plan.NumShards {
		return nil, fmt.Errorf("cluster: plan has %d shards, got %d endpoint groups", plan.NumShards, len(shards))
	}
	r := &Router{
		plan:    plan,
		shards:  shards,
		dead:    make([][]atomic.Bool, len(shards)),
		metrics: opts.Metrics,
		tracer:  opts.Tracer,
	}
	for sh, reps := range shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no endpoints", sh)
		}
		r.dead[sh] = make([]atomic.Bool, len(reps))
		want := plan.ShardLayout(sh)
		for rep, ep := range reps {
			if err := sameLayout(want, ep.Layout()); err != nil {
				return nil, fmt.Errorf("cluster: shard %d replica %d serves the wrong slice: %w", sh, rep, err)
			}
		}
	}
	for sh := 0; sh < plan.NumShards; sh++ {
		for _, t := range plan.ShardTensors(sh) {
			if !plan.Layout.Embedding[t] {
				r.denseShards = append(r.denseShards, sh)
				break
			}
		}
	}
	opts.Metrics.BindPlan(plan)
	return r, nil
}

// sameLayout compares two layouts shape for shape.
func sameLayout(want, got ps.Layout) error {
	if want.NumTensors() != got.NumTensors() {
		return fmt.Errorf("%d tensors, want %d", got.NumTensors(), want.NumTensors())
	}
	for t := 0; t < want.NumTensors(); t++ {
		if want.Rows[t] != got.Rows[t] || want.Cols[t] != got.Cols[t] ||
			want.Embedding[t] != got.Embedding[t] || want.Field[t] != got.Field[t] {
			return fmt.Errorf("tensor %d is %dx%d (embedding=%v field=%d), want %dx%d (embedding=%v field=%d)",
				t, got.Rows[t], got.Cols[t], got.Embedding[t], got.Field[t],
				want.Rows[t], want.Cols[t], want.Embedding[t], want.Field[t])
		}
	}
	return nil
}

// Plan returns the partition plan the router fans out over.
func (r *Router) Plan() ps.Plan { return r.plan }

// Layout implements ps.Store: workers see the global layout; the
// partitioning is invisible to them.
func (r *Router) Layout() ps.Layout { return r.plan.Layout }

// attempt runs fn against one endpoint, converting a panic — the
// ps.Store failure mode (a ps.Client that exhausted its retries, an
// injected in-process fault) — into an error the failover logic can
// act on.
func attempt(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("%v", p)
			}
		}
	}()
	fn()
	return nil
}

// condemn marks one replica dead after a failed call. A condemned
// replica serves no further reads or writes: a replica that missed a
// write must never serve a read, and one that failed a read is assumed
// gone for good (the endpoint's own retry budget was already spent).
func (r *Router) condemn(sh, rep int, op string, err error) {
	if r.dead[sh][rep].Swap(true) {
		return
	}
	r.metrics.observeFailure(sh)
	r.tracer.Flight().Trigger("shard_failover", map[string]any{
		"shard":   sh,
		"replica": rep,
		"op":      op,
		"error":   err.Error(),
	})
}

// read runs fn against shard sh's replicas in order, failing over past
// dead or failing ones. It returns the error only when every replica is
// gone — the caller turns that into a loud panic.
func (r *Router) read(sh int, op string, fn func(ps.Store)) error {
	var lastErr error
	for rep := range r.shards[sh] {
		if r.dead[sh][rep].Load() {
			continue
		}
		if rep > 0 {
			r.metrics.observeFailover(sh)
		}
		err := attempt(func() { fn(r.shards[sh][rep]) })
		if err == nil {
			return nil
		}
		lastErr = err
		r.condemn(sh, rep, op, err)
	}
	if lastErr == nil {
		lastErr = errors.New("all replicas already condemned")
	}
	return fmt.Errorf("cluster: shard %d: %s failed on every replica: %w", sh, op, lastErr)
}

// write broadcasts fn to every live replica of shard sh (in replica
// order, so replicated state stays deterministic). Replicas that fail
// are condemned; the write succeeds as long as one replica took it.
func (r *Router) write(sh int, op string, fn func(ps.Store)) error {
	applied := 0
	var lastErr error
	for rep := range r.shards[sh] {
		if r.dead[sh][rep].Load() {
			continue
		}
		if err := attempt(func() { fn(r.shards[sh][rep]) }); err != nil {
			lastErr = err
			r.condemn(sh, rep, op, err)
			continue
		}
		applied++
	}
	if applied == 0 {
		if lastErr == nil {
			lastErr = errors.New("all replicas already condemned")
		}
		return fmt.Errorf("cluster: shard %d: %s failed on every replica: %w", sh, op, lastErr)
	}
	return nil
}

// fanOut runs fn(sh) for every listed shard concurrently and panics —
// the ps.Store failure mode — if any shard ran out of replicas. Losing
// a whole shard means a slice of the model is gone; continuing would
// silently train on a partial parameter space.
func (r *Router) fanOut(shards []int, fn func(sh int) error) {
	if len(shards) == 1 { // common fast path: no goroutine needed
		if err := fn(shards[0]); err != nil {
			panic(err)
		}
		return
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i, sh int) {
			defer wg.Done()
			errs[i] = fn(sh)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
}

// PullDense implements ps.Store: dense tensors are pulled from their
// owning shards concurrently and merged into one reply keyed by global
// tensor index.
func (r *Router) PullDense(ctx context.Context) map[int][]float64 {
	ctx, sp := trace.Start(ctx, "cluster.pull_dense", trace.A("shards", len(r.denseShards)))
	defer sp.End()

	parts := make([]map[int][]float64, r.plan.NumShards)
	r.fanOut(r.denseShards, func(sh int) error {
		cctx, csp := trace.Start(ctx, "cluster.shard_call",
			trace.A("shard", sh), trace.A("op", "pull_dense"))
		start := time.Now()
		var local map[int][]float64
		if err := r.read(sh, "PullDense", func(s ps.Store) { local = s.PullDense(cctx) }); err != nil {
			csp.EndWith(trace.A("error", err.Error()))
			return err
		}
		parts[sh] = local
		floats := 0
		for _, v := range local {
			floats += len(v)
		}
		r.metrics.observeShardOp(sh, "pull_dense", time.Since(start).Seconds(), floats)
		csp.EndWith(trace.A("floats", floats))
		return nil
	})

	out := map[int][]float64{}
	floats := 0
	for _, sh := range r.denseShards {
		tensors := r.plan.ShardTensors(sh)
		for local, vals := range parts[sh] {
			out[tensors[local]] = vals
			floats += len(vals)
		}
	}
	atomic.AddInt64(&r.counters.densePulls, 1)
	atomic.AddInt64(&r.counters.floats, int64(floats))
	sp.SetAttr("floats", floats)
	return out
}

// PullRows implements ps.Store: the requested rows are grouped by
// owning shard, pulled concurrently with shard-local row indices, and
// reassembled in the caller's order.
func (r *Router) PullRows(ctx context.Context, tensor int, rows []int) [][]float64 {
	if !r.plan.Layout.Embedding[tensor] {
		panic(fmt.Sprintf("cluster: PullRows on dense tensor %d", tensor))
	}
	ctx, sp := trace.Start(ctx, "cluster.pull_rows",
		trace.A("tensor", tensor), trace.A("rows", len(rows)))
	defer sp.End()

	// Group request positions by owning shard.
	pos := make([][]int, r.plan.NumShards)   // positions in the caller's request
	local := make([][]int, r.plan.NumShards) // shard-local row indices
	var involved []int
	for i, row := range rows {
		sh := r.plan.ShardOfRow(tensor, row)
		if pos[sh] == nil {
			involved = append(involved, sh)
		}
		pos[sh] = append(pos[sh], i)
		local[sh] = append(local[sh], r.plan.LocalRow(tensor, row))
	}

	out := make([][]float64, len(rows))
	cols := r.plan.Layout.Cols[tensor]
	r.fanOut(involved, func(sh int) error {
		lt := r.plan.LocalTensor(sh, tensor)
		cctx, csp := trace.Start(ctx, "cluster.shard_call",
			trace.A("shard", sh), trace.A("op", "pull_rows"), trace.A("rows", len(local[sh])))
		start := time.Now()
		var vals [][]float64
		if err := r.read(sh, "PullRows", func(s ps.Store) { vals = s.PullRows(cctx, lt, local[sh]) }); err != nil {
			csp.EndWith(trace.A("error", err.Error()))
			return err
		}
		for j, p := range pos[sh] {
			out[p] = vals[j]
		}
		r.metrics.observeShardOp(sh, "pull_rows", time.Since(start).Seconds(), len(vals)*cols)
		csp.End()
		return nil
	})

	atomic.AddInt64(&r.counters.rowPulls, int64(len(rows)))
	atomic.AddInt64(&r.counters.floats, int64(len(rows)*cols))
	return out
}

// PushDelta implements ps.Store: the delta is split per shard — dense
// deltas to the owning shard, row deltas regrouped by row owner with
// shard-local indices — and the parts are pushed concurrently, each
// broadcast to the shard's live replicas. Every part carries the
// worker's (WorkerID, Seq) idempotency token, so a retried or
// replica-broadcast push is still applied exactly once per server.
func (r *Router) PushDelta(ctx context.Context, d ps.Delta) {
	ctx, sp := trace.Start(ctx, "cluster.push_delta",
		trace.A("dense_tensors", len(d.Dense)), trace.A("row_tensors", len(d.Rows)))
	defer sp.End()

	parts := make([]ps.Delta, r.plan.NumShards)
	floatsBy := make([]int, r.plan.NumShards)
	var involved []int
	touch := func(sh int) *ps.Delta {
		p := &parts[sh]
		if p.Dense == nil && p.Rows == nil {
			involved = append(involved, sh)
		}
		return p
	}

	var denseFloats, rowCount, rowFloats int
	// Iterate in ascending tensor order so each shard sees its slice of
	// the delta in the same order every run.
	for t := 0; t < r.plan.Layout.NumTensors(); t++ {
		if delta, ok := d.Dense[t]; ok {
			sh := r.plan.ShardOfTensor(t)
			p := touch(sh)
			if p.Dense == nil {
				p.Dense = map[int][]float64{}
			}
			p.Dense[r.plan.LocalTensor(sh, t)] = delta
			denseFloats += len(delta)
			floatsBy[sh] += len(delta)
		}
		rows, ok := d.Rows[t]
		if !ok {
			continue
		}
		cols := r.plan.Layout.Cols[t]
		for i, row := range rows {
			sh := r.plan.ShardOfRow(t, row)
			p := touch(sh)
			if p.Rows == nil {
				p.Rows = map[int][]int{}
				p.RowDeltas = map[int][][]float64{}
			}
			lt := r.plan.LocalTensor(sh, t)
			p.Rows[lt] = append(p.Rows[lt], r.plan.LocalRow(t, row))
			p.RowDeltas[lt] = append(p.RowDeltas[lt], d.RowDeltas[t][i])
			floatsBy[sh] += cols
		}
		rowCount += len(rows)
		rowFloats += len(rows) * cols
	}

	r.fanOut(involved, func(sh int) error {
		part := parts[sh]
		part.WorkerID, part.Seq = d.WorkerID, d.Seq
		cctx, csp := trace.Start(ctx, "cluster.shard_call",
			trace.A("shard", sh), trace.A("op", "push_delta"))
		start := time.Now()
		if err := r.write(sh, "PushDelta", func(s ps.Store) { s.PushDelta(cctx, part) }); err != nil {
			csp.EndWith(trace.A("error", err.Error()))
			return err
		}
		r.metrics.observeShardOp(sh, "push_delta", time.Since(start).Seconds(), floatsBy[sh])
		csp.End()
		return nil
	})

	if len(d.Dense) > 0 {
		atomic.AddInt64(&r.counters.densePushes, 1)
	}
	atomic.AddInt64(&r.counters.rowPushes, int64(rowCount))
	atomic.AddInt64(&r.counters.floats, int64(denseFloats+rowFloats))
}

// Counters implements ps.Store. The tallies are logical (router-level):
// one dense pull per PullDense regardless of how many shards it
// scattered to, so sharded and unsharded runs report the same
// synchronization-overhead numbers.
func (r *Router) Counters() ps.Counters {
	return ps.Counters{
		DensePulls:  atomic.LoadInt64(&r.counters.densePulls),
		DensePushes: atomic.LoadInt64(&r.counters.densePushes),
		RowPulls:    atomic.LoadInt64(&r.counters.rowPulls),
		RowPushes:   atomic.LoadInt64(&r.counters.rowPushes),
		FloatsMoved: atomic.LoadInt64(&r.counters.floats),
	}
}

// Snapshot implements ps.Snapshotter: it reassembles the full global
// parameter state from every shard's slice. The reads go through the
// shard endpoints (so it works over RPC and fails over past dead
// replicas) but bypass the router's logical counters — snapshotting for
// evaluation must not skew the synchronization-overhead numbers, just
// as ps.Server.Snapshot does not.
func (r *Router) Snapshot() paramvec.Vector {
	layout := r.plan.Layout
	out := make(paramvec.Vector, layout.NumTensors())
	for t := range out {
		out[t] = make([]float64, layout.Rows[t]*layout.Cols[t])
	}
	all := make([]int, r.plan.NumShards)
	for sh := range all {
		all[sh] = sh
	}
	ctx := context.Background()
	r.fanOut(all, func(sh int) error {
		tensors := r.plan.ShardTensors(sh)
		var dense map[int][]float64
		if err := r.read(sh, "Snapshot", func(s ps.Store) { dense = s.PullDense(ctx) }); err != nil {
			return err
		}
		for local, vals := range dense {
			copy(out[tensors[local]], vals)
		}
		for local, t := range tensors {
			if !layout.Embedding[t] {
				continue
			}
			globalRows := r.plan.ShardRows(sh, t)
			localRows := make([]int, len(globalRows))
			for i := range localRows {
				localRows[i] = i
			}
			var vals [][]float64
			lt := local
			if err := r.read(sh, "Snapshot", func(s ps.Store) { vals = s.PullRows(ctx, lt, localRows) }); err != nil {
				return err
			}
			cols := layout.Cols[t]
			for i, gr := range globalRows {
				copy(out[t][gr*cols:(gr+1)*cols], vals[i])
			}
		}
		return nil
	})
	return out
}

// TrySnapshot is Snapshot with the ps.Store failure mode — a panic when
// a whole shard is gone — converted to an error. Training wants the
// panic (continuing on a partial parameter space would silently corrupt
// the run), but the serving path wants to degrade: a serve instance
// whose upstream cluster died keeps answering from its last good
// snapshot, and TrySnapshot is how it probes for a fresh one without
// risking the process.
func (r *Router) TrySnapshot() (v paramvec.Vector, err error) {
	if perr := attempt(func() { v = r.Snapshot() }); perr != nil {
		return nil, perr
	}
	return v, nil
}

// TryPing pings every replica of every shard through the endpoints that
// support it, converting panics to errors. Unlike the data-path reads it
// never condemns a replica — a health probe must be side-effect-free, so
// a shard that flaps and recovers keeps serving. The first failure names
// the shard and replica.
func (r *Router) TryPing(ctx context.Context) error {
	for sh, reps := range r.shards {
		for rep, ep := range reps {
			p, ok := ep.(interface{ Ping(context.Context) error })
			if !ok {
				continue
			}
			var err error
			if perr := attempt(func() { err = p.Ping(ctx) }); perr != nil {
				err = perr
			}
			if err != nil {
				return fmt.Errorf("cluster: shard %d replica %d: ping: %w", sh, rep, err)
			}
		}
	}
	return nil
}

// Close closes every endpoint that supports closing (ps.Clients do;
// in-process ps.Servers do not). Used when a dial+snapshot attempt is
// abandoned and retried against a fresh router.
func (r *Router) Close() error {
	var first error
	for _, reps := range r.shards {
		for _, ep := range reps {
			if c, ok := ep.(interface{ Close() error }); ok {
				if err := c.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	return first
}

// LiveReplicas reports how many replicas of shard sh still serve.
func (r *Router) LiveReplicas(sh int) int {
	n := 0
	for rep := range r.shards[sh] {
		if !r.dead[sh][rep].Load() {
			n++
		}
	}
	return n
}

// SaveCheckpoint implements ps.CheckpointStore: every live replica of
// every shard persists its slice to its own configured path (see
// ps.ShardCheckpointPath). A replica that cannot checkpoint fails the
// call — a partial cluster checkpoint must never look complete.
func (r *Router) SaveCheckpoint(epoch int) error {
	for sh, reps := range r.shards {
		for rep, ep := range reps {
			if r.dead[sh][rep].Load() {
				continue
			}
			cs, ok := ep.(ps.CheckpointStore)
			if !ok {
				return fmt.Errorf("cluster: shard %d replica %d cannot checkpoint", sh, rep)
			}
			var err error
			if perr := attempt(func() { err = cs.SaveCheckpoint(epoch) }); perr != nil {
				err = perr
			}
			if err != nil {
				return fmt.Errorf("cluster: checkpoint shard %d replica %d: %w", sh, rep, err)
			}
		}
	}
	return nil
}

// LoadCheckpoint implements ps.CheckpointStore: every live replica
// restores its slice, and the per-shard epoch cursors must agree — a
// cluster restored from mixed epochs would silently train on torn
// state. All shards reporting no checkpoint yields (-1, nil).
func (r *Router) LoadCheckpoint() (int, error) {
	epoch, first := 0, true
	for sh, reps := range r.shards {
		for rep, ep := range reps {
			if r.dead[sh][rep].Load() {
				continue
			}
			cs, ok := ep.(ps.CheckpointStore)
			if !ok {
				return 0, fmt.Errorf("cluster: shard %d replica %d cannot checkpoint", sh, rep)
			}
			var e int
			var err error
			if perr := attempt(func() { e, err = cs.LoadCheckpoint() }); perr != nil {
				err = perr
			}
			if err != nil {
				return 0, fmt.Errorf("cluster: restore shard %d replica %d: %w", sh, rep, err)
			}
			if first {
				epoch, first = e, false
			} else if e != epoch {
				return 0, fmt.Errorf("cluster: torn checkpoint: shard %d replica %d is at epoch %d, cluster at %d",
					sh, rep, e, epoch)
			}
		}
	}
	if first {
		return -1, nil
	}
	return epoch, nil
}
