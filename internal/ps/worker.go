package ps

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/trace"
)

// Worker runs MAMDR's inner loops on a model replica over an assigned
// subset of domains, exchanging parameters with a Store as described in
// Section IV-E:
//
//  1. pull dense parameters into the static cache at epoch start;
//  2. during the inner loop, resolve embedding rows through the
//     dynamic-cache — a miss queries the *latest* row from the PS
//     (bounding staleness), caches it, and records its static value;
//  3. after the inner loop, push Θ̃−Θ for dense tensors and touched rows
//     only, then clear both caches.
//
// With CacheEnabled=false the worker re-pulls every batch's embedding
// rows from the PS and pushes per-batch deltas immediately — the naive
// protocol whose synchronization overhead the cache experiments compare
// against.
type Worker struct {
	ID           int
	Model        models.Model
	Dataset      *data.Dataset
	Domains      []int
	Store        Store
	CacheEnabled bool

	// Metrics, when non-nil, records the dynamic-cache hit/miss ratio
	// and the row-staleness distribution (shared with the server's
	// traffic series).
	Metrics *Metrics

	// OnBeat, when non-nil, is the worker's heartbeat: it fires after
	// every completed mini-batch (piggybacking liveness on real
	// progress), so a supervisor can declare the worker dead after a
	// missed-heartbeat deadline without any extra RPC traffic.
	OnBeat func()

	// cfg is the run's training configuration: the inner optimizer
	// (InnerOpt, LR) and the per-domain batch bounds; its Telemetry
	// records the same per-domain series as single-process training,
	// tagged with the worker id, and its Tracer emits one trace per
	// epoch — worker.epoch → worker.inner_step per domain → per-batch
	// phase spans, with every PS pull and push parented to the step that
	// issued it (across the RPC socket too).
	cfg    framework.Config
	params []*autograd.Tensor
	// rows is the embedding rows of the current batch, table by table as
	// the store's layout declares them: what resolveEmbeddingRows pulls.
	rows models.RowSet
	// pushSeq numbers this worker's pushes (1-based); together with ID
	// it forms the Delta idempotency token that makes retries safe.
	pushSeq int64
	// pending holds the epoch's delta between TrainEpoch and PushEpoch.
	pending *Delta
	// staticDense is the static cache: the dense tensors as pulled at
	// epoch start. cached is the dynamic cache, tensor → row → the row
	// as it was pulled; the model tensor itself stores the row's updated
	// value. pullDense starts both.
	staticDense map[int][]float64
	cached      map[int]map[int]cachedRow
	// batchClock counts local mini-batches this epoch.
	batchClock int
}

// cachedRow is one embedding row of the dynamic cache.
type cachedRow struct {
	// static is the row's value at its pull, what its delta is taken
	// against.
	static []float64
	// pulledAt is batchClock at the pull, so buildDelta can report how
	// stale the cached row grew.
	pulledAt int
}

// NewWorker builds a worker over a model replica that trains as cfg
// says. It panics if the store's layout does not align with the
// replica's parameters or names fields the dataset schema does not have
// — a mismatch here means some tensor would silently never synchronize.
func NewWorker(id int, m models.Model, ds *data.Dataset, domains []int, store Store, cache bool, cfg framework.Config) *Worker {
	w := &Worker{
		ID: id, Model: m, Dataset: ds, Domains: domains, Store: store,
		CacheEnabled: cache,
		cfg:          cfg,
		params:       m.Parameters(),
	}
	w.verifyLayout()
	w.rows = models.NewRowSet(w.params, store.Layout().Tables())
	return w
}

// verifyLayout cross-checks the store's layout against the replica: the
// tensor list must align shape for shape, and every embedding tensor's
// field must exist in the dataset schema, so each tensor is reachable by
// either dense or row synchronization.
func (w *Worker) verifyLayout() {
	layout := w.Store.Layout()
	if err := models.LayoutOf(w.params, layout.Tables()).Same(layout); err != nil {
		panic(fmt.Sprintf("ps: worker %d: the store's layout against the replica's: %v", w.ID, err))
	}
	if err := layout.Validate(w.Dataset.Schema.NumFields()); err != nil {
		panic(fmt.Sprintf("ps: worker %d: %v", w.ID, err))
	}
}

// WorkerAbort is the panic value a worker raises when its supervisor
// cancels it (missed heartbeats, shutdown): the trainer's recovery path
// distinguishes a deliberate abort from an organic crash.
type WorkerAbort struct {
	ID     int
	Reason string
}

// Error implements error.
func (a *WorkerAbort) Error() string {
	return fmt.Sprintf("ps: worker %d aborted: %s", a.ID, a.Reason)
}

// TrainEpoch executes one DN inner loop over the worker's domains under
// a supervisor's context — it checks ctx between mini-batches and panics
// with *WorkerAbort once it is cancelled, so a hung or condemned worker
// stops at the next batch boundary instead of finishing the epoch — and
// parks the outer-loop delta, computed against the epoch-start state,
// until PushEpoch. The trainer's deterministic mode runs all workers'
// TrainEpochs concurrently (every worker reads the same epoch-start
// parameters, since nobody pushes) and then applies PushEpoch serially
// in worker-id order, which makes distributed training bit-reproducible
// under a fixed seed; its asynchronous mode calls the two back to back.
// Without the PS-Worker cache the worker pushes mid-epoch by design and
// parks nothing.
func (w *Worker) TrainEpoch(ctx context.Context, rng *rand.Rand) {
	ctx = w.cfg.Tracer.Context(ctx)
	ctx, epochSpan := trace.Start(ctx, "worker.epoch", trace.A("worker", w.ID))
	defer epochSpan.End()

	w.pullDense(ctx)
	w.batchClock = 0
	// The epoch's dropout masks come from the epoch's RNG, first draw, as
	// in core.DomainNegotiationEpoch — not from wherever the replica's
	// stream was left by earlier epochs a resumed run never ran.
	models.SeedMasks(w.Model, rng.Int63())
	order := rng.Perm(len(w.Domains))
	for i, di := range order {
		order[i] = w.Domains[di]
	}
	// The same inner loop as the single-process trainer: under SGD and
	// Adagrad its steps clear and step only the rows the batch gathers,
	// which are the rows the cache has just resolved.
	rec := framework.InnerLoopEpoch(ctx, w.Model, w.Dataset, order, optim.New(w.cfg.InnerOpt, w.cfg.LR), w.cfg, rng, "worker", w.ID,
		func(ctx context.Context, b *data.Batch) {
			if err := ctx.Err(); err != nil {
				panic(&WorkerAbort{ID: w.ID, Reason: err.Error()})
			}
			w.resolveEmbeddingRows(ctx, b)
		},
		func(ctx context.Context) {
			w.batchClock++
			if w.OnBeat != nil {
				w.OnBeat()
			}
			if !w.CacheEnabled {
				// Naive protocol: push this batch's deltas right away
				// and drop the cache so the next batch re-pulls.
				w.send(ctx, w.buildDelta())
				w.pullDense(ctx)
			}
		})
	if w.CacheEnabled {
		d := w.buildDelta()
		w.pending = &d
	}
	rec.Finish(-1)
	// The paper: "we clear both the static-cache and dynamic-cache for
	// next epoch".
	w.staticDense, w.cached = nil, nil
}

// PushEpoch applies the delta parked by TrainEpoch.
func (w *Worker) PushEpoch(ctx context.Context) {
	if w.pending != nil {
		ctx = w.cfg.Tracer.Context(ctx)
		w.send(ctx, *w.pending)
		w.pending = nil
	}
}

// pullDense refreshes dense tensors from the PS into both the model and
// the static cache, and empties the dynamic cache: rows pulled before
// the refresh are as stale as the dense values it replaces.
func (w *Worker) pullDense(ctx context.Context) {
	w.staticDense = w.Store.PullDense(ctx)
	for t, vals := range w.staticDense {
		copy(w.params[t].Data, vals)
	}
	w.cached = map[int]map[int]cachedRow{}
}

// resolveEmbeddingRows ensures every embedding row the batch touches is
// present in the dynamic cache, querying the latest values from the PS
// on miss. Which rows those are comes from models.RowSet over the
// layout's explicit table-to-field mapping (declared by the model through
// models.EmbeddingTabler), not from a tensor's position or row count.
func (w *Worker) resolveEmbeddingRows(ctx context.Context, b *data.Batch) {
	w.rows.Gather(b)
	for _, tr := range w.rows {
		t, p, rows := tr.Param, w.params[tr.Param], tr.Rows
		if len(rows) == 0 {
			continue
		}
		cache := w.cached[t]
		if cache == nil {
			cache = map[int]cachedRow{}
			w.cached[t] = cache
		}
		var missing []int
		for _, r := range rows {
			if _, hit := cache[r]; !hit {
				missing = append(missing, r)
			}
		}
		w.Metrics.observeCacheResolve(len(rows)-len(missing), len(missing))
		if len(missing) == 0 {
			continue
		}
		vals := w.Store.PullRows(ctx, t, missing)
		cols := p.Cols
		for i, r := range missing {
			copy(p.Data[r*cols:(r+1)*cols], vals[i])
			cache[r] = cachedRow{static: vals[i], pulledAt: w.batchClock}
		}
	}
}

// buildDelta computes Θ̃−Θ against the caches: full deltas for dense
// tensors, touched rows only for embeddings.
func (w *Worker) buildDelta() Delta {
	layout := w.Store.Layout()
	d := Delta{Dense: map[int][]float64{}, Rows: map[int][]int{}, RowDeltas: map[int][][]float64{}}
	for t, p := range w.params {
		if layout.IsTable(t) {
			cache := w.cached[t]
			if len(cache) == 0 {
				continue
			}
			// Push rows in sorted order: map iteration order is random,
			// and the server applies row updates sequentially per shard,
			// so a deterministic order keeps distributed runs
			// reproducible under a fixed seed.
			rows := make([]int, 0, len(cache))
			for r := range cache {
				rows = append(rows, r)
			}
			sort.Ints(rows)
			cols := p.Cols
			for _, r := range rows {
				c := cache[r]
				w.Metrics.observeStaleness(w.batchClock - c.pulledAt)
				static := c.static
				delta := make([]float64, cols)
				for j := 0; j < cols; j++ {
					delta[j] = p.Data[r*cols+j] - static[j]
				}
				d.Rows[t] = append(d.Rows[t], r)
				d.RowDeltas[t] = append(d.RowDeltas[t], delta)
			}
			continue
		}
		static := w.staticDense[t]
		delta := make([]float64, len(p.Data))
		for j := range delta {
			delta[j] = p.Data[j] - static[j]
		}
		d.Dense[t] = delta
	}
	return d
}

// send tags the delta with the worker's idempotency token and pushes
// it. A failed push — the Store panics when a push exhausts its
// retries — is never silent: it is counted as push_failures_total in
// the telemetry registry and re-raised, aborting the epoch so the
// supervisor sees a dead worker rather than a silently desynced one.
func (w *Worker) send(ctx context.Context, d Delta) {
	w.pushSeq++
	d.WorkerID, d.Seq = w.ID, w.pushSeq
	defer func() {
		if r := recover(); r != nil {
			w.Metrics.observePushFailure()
			panic(r)
		}
	}()
	w.Store.PushDelta(ctx, d)
}
