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
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/trace"
)

// Layout describes the parameter tensors managed by a server: their
// shapes, which of them are treated as sparse embedding tables
// (synchronized row-wise) versus dense tensors (synchronized whole),
// and for each embedding table the schema field whose ids index its
// rows.
type Layout struct {
	Rows, Cols []int
	Embedding  []bool
	// Field[t] is the schema field served by embedding tensor t, or -1
	// for dense tensors. Workers use it to find the batch ids that touch
	// the table's rows, so the association is explicit rather than
	// positional.
	Field []int
}

// LayoutOf derives a layout from model parameters and an explicit
// embedding classification: tables maps parameter indices to the schema
// field whose ids index their rows (models.EmbeddingTablesOf supplies
// it). Every tensor not named in tables is synchronized densely.
//
// Earlier revisions classified any tensor with >= N rows as an
// embedding table, which silently excluded wide dense matrices (a first
// MLP layer with numFields x embDim >= N input rows, attention
// projections, ...) from both dense and row synchronization — those
// layers trained on stale per-worker replicas and snapshots returned
// their initial values. The explicit mask makes that impossible, and
// Validate cross-checks it.
func LayoutOf(params []*autograd.Tensor, tables map[int]int) Layout {
	l := Layout{
		Rows:      make([]int, len(params)),
		Cols:      make([]int, len(params)),
		Embedding: make([]bool, len(params)),
		Field:     make([]int, len(params)),
	}
	for i, p := range params {
		l.Rows[i] = p.Rows
		l.Cols[i] = p.Cols
		l.Field[i] = -1
		if f, ok := tables[i]; ok {
			l.Embedding[i] = true
			l.Field[i] = f
		}
	}
	return l
}

// Tables is the classification LayoutOf was given: embedding tensor
// index → schema field.
func (l Layout) Tables() map[int]int {
	tables := map[int]int{}
	for t, emb := range l.Embedding {
		if emb {
			tables[t] = l.Field[t]
		}
	}
	return tables
}

// NumTensors returns the number of managed tensors.
func (l Layout) NumTensors() int { return len(l.Rows) }

// Validate cross-checks that every managed tensor is reachable by
// exactly one synchronization path: dense tensors are pulled and pushed
// whole by PullDense/PushDelta, and embedding tensors carry a
// non-negative field so workers can resolve which rows a batch touches.
// numFields bounds the field indices; pass a negative value to skip
// that check (e.g. when the dataset schema is not at hand).
func (l Layout) Validate(numFields int) error {
	n := len(l.Rows)
	if len(l.Cols) != n || len(l.Embedding) != n || len(l.Field) != n {
		return fmt.Errorf("ps: layout slices misaligned: rows=%d cols=%d embedding=%d field=%d",
			n, len(l.Cols), len(l.Embedding), len(l.Field))
	}
	for t := 0; t < n; t++ {
		if l.Rows[t] <= 0 || l.Cols[t] <= 0 {
			return fmt.Errorf("ps: tensor %d has degenerate shape %dx%d", t, l.Rows[t], l.Cols[t])
		}
		if l.Embedding[t] {
			if l.Field[t] < 0 {
				return fmt.Errorf("ps: tensor %d is row-synced but names no field: unreachable by any sync path", t)
			}
			if numFields >= 0 && l.Field[t] >= numFields {
				return fmt.Errorf("ps: tensor %d maps to field %d, schema has %d fields", t, l.Field[t], numFields)
			}
		} else if l.Field[t] >= 0 {
			return fmt.Errorf("ps: dense tensor %d names field %d (would be double-synced)", t, l.Field[t])
		}
	}
	return nil
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
	// Counters returns a snapshot of the traffic counters.
	Counters() Counters
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
	// the server's crash-safe snapshot (see checkpoint.go).
	ckptPath string
}

// SetMetrics attaches a telemetry mirror for the traffic counters.
// Attach before serving traffic; the field is not synchronized against
// in-flight calls.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// Metrics returns the attached telemetry mirror (nil when
// uninstrumented).
func (s *Server) Metrics() *Metrics { return s.metrics }

// SetTracer attaches a tracer for server-side spans. Attach before
// serving traffic; the field is not synchronized against in-flight
// calls.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

// Tracer returns the attached tracer (nil when untraced).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// NewServer builds a server over the given initial parameters. tables is
// the explicit embedding classification (parameter index -> schema
// field; models.EmbeddingTablesOf supplies it — nil means everything
// syncs densely). outerOpt ("sgd", "adagrad", "adam") with learning rate
// beta performs the outer update of Eq. 3. NewServer panics if the
// resulting layout fails Validate — a tensor unreachable by both sync
// paths is a silent-desync bug, not a recoverable condition.
func NewServer(params []*autograd.Tensor, tables map[int]int, outerOpt string, beta float64) *Server {
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
		if !s.layout.Embedding[t] {
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
	if !s.layout.Embedding[tensor] {
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

// Counters implements Store.
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
