// Package ps implements the paper's large-scale PS-Worker architecture
// (Section IV-E): sharded parameter servers storing the model, workers
// computing MAMDR's inner loops locally, and the embedding PS-Worker
// cache (static-cache + dynamic-cache) that reduces synchronization
// overhead and staleness for large sparse embedding tables.
//
// The in-process Server and the net/rpc transport expose the same Store
// interface, so the worker code is identical whether the parameter
// server lives in the same process (tests, benchmarks) or across a real
// socket (examples/distributed).
package ps

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mamdr/internal/autograd"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/trace"
)

// Layout is the tensor layout a server manages: models.Layout, so the
// servers, workers, checkpoints and serving snapshots share one record.
type Layout = models.Layout

// LayoutOf is models.LayoutOf.
func LayoutOf(params []*autograd.Tensor, tables map[int]int) Layout {
	return models.LayoutOf(params, tables)
}

// Counters tallies parameter-server traffic; FloatsMoved is the
// synchronization-overhead metric reported by the cache experiments.
type Counters struct {
	DensePulls  int64
	DensePushes int64
	RowPulls    int64
	RowPushes   int64
	FloatsMoved int64
}

// Store is the worker-side view of a parameter server. Every data
// operation takes a context: the worker's active trace span rides in
// it, so the server-side span of each synchronization call — whether
// the store is in-process or across the net/rpc socket — links to the
// exact inner-loop step that issued it. Callers without tracing pass
// context.Background() and pay nothing.
type Store interface {
	// Layout returns the managed tensor layout.
	Layout() Layout
	// PullDense returns the current values of all dense (non-embedding)
	// tensors, keyed by tensor index.
	PullDense(ctx context.Context) map[int][]float64
	// PullRows returns the latest values of the requested embedding rows.
	PullRows(ctx context.Context, tensor int, rows []int) [][]float64
	// PushDelta applies an outer update (Eq. 3): for dense tensors the
	// full delta Θ̃−Θ, for embeddings only the touched rows' deltas. The
	// server feeds -(delta) to its outer optimizer.
	PushDelta(ctx context.Context, d Delta)
}

// Delta is one worker's outer-loop contribution.
type Delta struct {
	// Dense maps tensor index to a full-tensor delta.
	Dense map[int][]float64
	// Rows and RowDeltas map tensor index to the touched embedding rows
	// and their per-row deltas.
	Rows      map[int][]int
	RowDeltas map[int][][]float64
	// WorkerID and Seq form the idempotency token that makes pushes safe
	// to retry: the server remembers each worker's last applied sequence
	// and discards a delta it has already folded in. Seq is 1-based and
	// strictly increasing per worker; Seq == 0 marks an untagged delta
	// that is always applied (single-shot callers that never retry).
	WorkerID int
	Seq      int64
}

// Server is the in-process parameter server: the managed tensors, one
// mutex and one outer optimizer. Concurrency across parameters comes
// from running several servers, each over its Plan shard, exactly as in
// a multi-machine PS deployment (the paper uses 40 parameter servers).
type Server struct {
	layout Layout

	// mu guards data's values and opt. data holds each tensor as a
	// persistent autograd parameter so the outer optimizer's per-tensor
	// state (Adagrad accumulators, Adam moments) survives across pushes.
	mu   sync.Mutex
	data []*autograd.Tensor
	opt  optim.Optimizer
	lr   float64 // outer learning rate β

	counters struct {
		densePulls, densePushes, rowPulls, rowPushes, floats int64
	}

	// metrics mirrors the counters into telemetry series when attached
	// via SetMetrics; nil means uninstrumented.
	metrics *Metrics
	// tracer emits server-side spans for every synchronization call;
	// the RPC transport uses it to adopt remote TraceContexts. Nil
	// means untraced.
	tracer *trace.Tracer

	// seqMu guards lastSeq, the per-worker last-applied push sequence
	// that makes retried pushes idempotent (duplicates are discarded
	// before touching any tensor).
	seqMu   sync.Mutex
	lastSeq map[int]int64

	// ckptPath, when set, is where SaveCheckpoint/LoadCheckpoint persist
	// the server's crash-safe snapshot; it records spec, the run the
	// server hosts (see checkpoint.go).
	ckptPath string
	spec     framework.Spec
}

// SetMetrics attaches a telemetry mirror for the traffic counters.
// Attach before serving traffic; the field is not synchronized against
// in-flight calls.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// SetTracer attaches a tracer for server-side spans. Attach before
// serving traffic; the field is not synchronized against in-flight
// calls.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

// NewServer builds a server over the given initial parameters. tables is
// the explicit embedding classification (parameter index -> schema
// field; models.EmbeddingTablesOf supplies it — nil means everything
// syncs densely). outerOpt ("sgd", "adagrad", "adam"; "" means "sgd")
// with learning rate beta (0 means 0.5) performs the outer update of
// Eq. 3 — this is the one place those defaults are decided, so every
// server of a cluster and every trainer that builds one agree. NewServer
// panics if the resulting layout fails Validate — a tensor unreachable
// by both sync paths is a silent-desync bug, not a recoverable condition.
func NewServer(params []*autograd.Tensor, tables map[int]int, outerOpt string, beta float64) *Server {
	if outerOpt == "" {
		outerOpt = "sgd"
	}
	if beta == 0 {
		beta = 0.5
	}
	layout := LayoutOf(params, tables)
	if err := layout.Validate(-1); err != nil {
		panic(err)
	}
	s := &Server{
		layout:  layout,
		data:    make([]*autograd.Tensor, len(params)),
		opt:     optim.New(outerOpt, beta),
		lr:      beta,
		lastSeq: map[int]int64{},
	}
	for i, p := range params {
		s.data[i] = autograd.Param(p.Rows, p.Cols, append([]float64(nil), p.Data...))
	}
	return s
}

// Layout implements Store.
func (s *Server) Layout() Layout { return s.layout }

// PullDense implements Store.
func (s *Server) PullDense(ctx context.Context) map[int][]float64 {
	_, sp := trace.Start(ctx, "ps.pull_dense")
	out := map[int][]float64{}
	var floats int
	s.mu.Lock()
	for t, p := range s.data {
		if !s.layout.IsTable(t) {
			out[t] = append([]float64(nil), p.Data...)
			floats += len(p.Data)
		}
	}
	s.mu.Unlock()
	atomic.AddInt64(&s.counters.floats, int64(floats))
	atomic.AddInt64(&s.counters.densePulls, 1)
	s.metrics.observeDensePull(floats)
	sp.EndWith(trace.A("floats", floats))
	return out
}

// PullRows implements Store.
func (s *Server) PullRows(ctx context.Context, tensor int, rows []int) [][]float64 {
	if !s.layout.IsTable(tensor) {
		panic(fmt.Sprintf("ps: PullRows on dense tensor %d", tensor))
	}
	_, sp := trace.Start(ctx, "ps.pull_rows", trace.A("tensor", tensor), trace.A("rows", len(rows)))
	defer sp.End()
	cols := s.layout.Cols[tensor]
	out := make([][]float64, len(rows))
	s.mu.Lock()
	table := s.data[tensor].Data
	for i, r := range rows {
		out[i] = append([]float64(nil), table[r*cols:(r+1)*cols]...)
	}
	s.mu.Unlock()
	atomic.AddInt64(&s.counters.rowPulls, int64(len(rows)))
	atomic.AddInt64(&s.counters.floats, int64(len(rows)*cols))
	s.metrics.observeRowPull(tensor, len(rows), len(rows)*cols)
	return out
}

// PushDelta implements Store. Dense tensors go through the outer
// optimizer (gradient = -delta); embedding rows are updated with plain
// SGD at the outer learning rate, the standard choice for sparse slots.
// DensePushes counts only pushes that actually carry dense deltas, so
// the synchronization-overhead experiment is not inflated by row-only
// or empty pushes.
func (s *Server) PushDelta(ctx context.Context, d Delta) {
	_, sp := trace.Start(ctx, "ps.push_delta",
		trace.A("dense_tensors", len(d.Dense)), trace.A("row_tensors", len(d.Rows)))
	defer sp.End()
	// Idempotency gate: a tagged delta (Seq > 0) is applied exactly once
	// per worker. The decision and the cursor advance happen atomically
	// under seqMu, so a duplicate delivered concurrently with the
	// original is discarded even before the original finishes applying.
	if d.Seq > 0 {
		s.seqMu.Lock()
		if d.Seq <= s.lastSeq[d.WorkerID] {
			s.seqMu.Unlock()
			sp.SetAttr("duplicate", true)
			s.metrics.observeDuplicatePush()
			return
		}
		s.lastSeq[d.WorkerID] = d.Seq
		s.seqMu.Unlock()
	}
	if len(d.Dense) > 0 {
		atomic.AddInt64(&s.counters.densePushes, 1)
		s.metrics.observeDensePush()
	}
	// Tensors are stepped in ascending index order, not map order: an
	// outer optimizer with cross-tensor state (Adam's shared step
	// counter) must see the same sequence every run for pushes to be
	// reproducible.
	for _, t := range sortedKeys(d.Dense) {
		delta := d.Dense[t]
		s.mu.Lock()
		tensor := s.data[t]
		// Every entry of the server's own tensor is written, then
		// stepped densely: these buffers never meet a train step.
		for i, v := range delta {
			tensor.Grad[i] = -v
		}
		s.opt.Step([]*autograd.Tensor{tensor})
		s.mu.Unlock()
		atomic.AddInt64(&s.counters.floats, int64(len(delta)))
		s.metrics.observeDenseFloats(len(delta))
	}
	for _, t := range sortedKeys(d.Rows) {
		rows := d.Rows[t]
		cols := s.layout.Cols[t]
		s.mu.Lock()
		table := s.data[t].Data
		for i, r := range rows {
			dst := table[r*cols : (r+1)*cols]
			for j, v := range d.RowDeltas[t][i] {
				dst[j] += s.lr * v
			}
		}
		s.mu.Unlock()
		atomic.AddInt64(&s.counters.rowPushes, int64(len(rows)))
		atomic.AddInt64(&s.counters.floats, int64(len(rows)*cols))
		s.metrics.observeRowPush(t, len(rows), len(rows)*cols)
	}
}

// sortedKeys returns a map's integer keys in ascending order, for
// deterministic iteration over per-tensor delta maps.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Counters returns a snapshot of the server's traffic counters.
func (s *Server) Counters() Counters {
	return Counters{
		DensePulls:  atomic.LoadInt64(&s.counters.densePulls),
		DensePushes: atomic.LoadInt64(&s.counters.densePushes),
		RowPulls:    atomic.LoadInt64(&s.counters.rowPulls),
		RowPushes:   atomic.LoadInt64(&s.counters.rowPushes),
		FloatsMoved: atomic.LoadInt64(&s.counters.floats),
	}
}

// Snapshot returns the server's current full parameter state aligned
// with the original parameter list (used to evaluate the trained model).
func (s *Server) Snapshot() paramvec.Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return paramvec.Snapshot(s.data)
}
