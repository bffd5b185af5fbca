package ps

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/trace"
)

// Options configures distributed MAMDR training.
type Options struct {
	// Workers is the number of concurrent worker replicas (the paper
	// uses 400; benchmarks here use a handful).
	Workers int
	// Shards is the number of parameter-server shards (the paper's 40
	// parameter servers) for whoever builds the store to plan
	// (NewPlan); the trainer itself only sees the Store.
	Shards int
	// CacheEnabled toggles the embedding PS-Worker cache of §IV-E.
	CacheEnabled bool
	// OuterOpt/OuterLR configure the PS-side outer update (the paper's
	// industrial setup: Adagrad with lr in [0.1, 1]); NewServer decides
	// what zero values mean.
	OuterOpt string
	OuterLR  float64
	// InnerOpt/InnerLR configure worker-local inner steps (SGD 0.1 in
	// the paper's industrial setup).
	InnerOpt string
	InnerLR  float64
	// Epochs and BatchSize bound the training loop; every domain visit
	// is one full pass.
	Epochs    int
	BatchSize int
	// UseDR enables the Domain Regularization phase after DN training;
	// SampleK and DRLR are Algorithm 2's k and γ.
	UseDR   bool
	SampleK int
	DRLR    float64
	Seed    int64

	// SyncPush makes distributed training bit-reproducible: workers run
	// their inner loops concurrently against the epoch-start state
	// (pushes deferred), then the trainer applies every worker's delta
	// sequentially in worker-id order. The schedule-independent apply
	// order is what the chaos determinism tests rely on to compare a
	// faulty run against a clean one float for float. Requires
	// CacheEnabled (deferred pushes need the cache protocol).
	SyncPush bool

	// WrapStore, when non-nil, wraps each worker's view of the store —
	// the hook chaos tests use to give every worker its own seeded
	// fault-injecting transport. workerID is the worker's index.
	WrapStore func(workerID int, base Store) Store

	// HeartbeatTimeout arms the supervisor's watchdog: a worker that
	// completes no mini-batch for this long is cancelled, declared
	// dead, and its domains move to the survivors. Zero disables the
	// watchdog (worker panics are still supervised and redistributed).
	HeartbeatTimeout time.Duration

	// CheckpointPath, when set (with Train), configures the in-process
	// server's checkpoint location (its files record the zero spec).
	// CheckpointEvery writes a server checkpoint every N completed epochs
	// (0 disables; any value requires the store to implement
	// CheckpointStore). Resume restores the store's last checkpoint before
	// training and skips the epochs it already covers; a refused one
	// panics with a *framework.ResumeError.
	CheckpointPath  string
	CheckpointEvery int
	Resume          bool

	// Metrics, when non-nil, mirrors PS traffic, the worker cache
	// hit/miss ratio, and the row-staleness distribution into a
	// telemetry registry (ps.NewMetrics).
	Metrics *Metrics
	// Telemetry, when non-nil, records per-domain training telemetry
	// from every worker's inner loops — the same series as
	// single-process training, tagged by worker in the event log.
	Telemetry *framework.TrainMetrics
	// Tracer, when non-nil, emits one trace per worker epoch (inner
	// steps, per-batch phases, PS pulls/pushes) and arms the flight
	// recorder for training anomalies. In-process stores share the
	// tracer between worker and server sides; over RPC the trace
	// context travels in the call arguments instead.
	Tracer *trace.Tracer
}

// WithDefaults fills zero fields with the benchmark-scale defaults.
func (o Options) WithDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.InnerOpt == "" {
		o.InnerOpt = "sgd"
	}
	if o.InnerLR == 0 {
		o.InnerLR = 0.1
	}
	if o.Epochs == 0 {
		o.Epochs = 10
	}
	return o
}

// Result is the outcome of distributed training.
type Result struct {
	// State holds the trained shared/specific parameters and serves as
	// the predictor.
	State *core.State
	// Counters is the parameter-server traffic tally.
	Counters Counters
	// WorkerDeaths is how many workers the supervisor declared dead and
	// redistributed during the run.
	WorkerDeaths int
	// ResumedFrom is the completed-epoch cursor the run restored from
	// (-1 when it started fresh).
	ResumedFrom int
}

// Train runs distributed MAMDR: one in-process parameter server
// initialized from one replica, Workers concurrent workers running DN
// inner loops over disjoint domain partitions with asynchronous pushes,
// and (optionally) a Domain Regularization phase for the specific
// parameters. replica must return structurally identical models (same
// Config including Seed); one replica is built per worker plus one for
// serving.
func Train(replica func() models.Model, ds *data.Dataset, opts Options) *Result {
	opts = opts.WithDefaults()
	serving := replica()
	// The model declares which of its tensors are embedding tables;
	// everything else synchronizes densely. No row-count guessing.
	tables := models.EmbeddingTablesOf(serving)
	server := NewServer(serving.Parameters(), tables, opts.OuterOpt, opts.OuterLR)
	server.SetMetrics(opts.Metrics)
	server.SetTracer(opts.Tracer)
	server.SetCheckpoint(opts.CheckpointPath, framework.Spec{})
	return TrainWithStore(replica, serving, server, server, ds, opts)
}

// supervisedWorker is the trainer's view of one worker: its liveness
// clock, its supervisor-controlled context, and whether it has been
// declared dead.
type supervisedWorker struct {
	w        *Worker
	dead     bool
	lastBeat atomic.Int64 // UnixNano of the last completed mini-batch
}

// death records one worker's demise for post-epoch processing.
type death struct {
	worker int
	cause  any
}

// TrainWithStore is Train against an arbitrary Store (e.g. an RPC
// client). The run's traffic tally is read from counterSrc — a Store
// carries training traffic only — which may be nil when the caller
// tracks it elsewhere.
//
// Fault tolerance: each epoch runs under supervision — a worker that
// panics (a push that exhausted its retries, an injected fault, a
// missed-heartbeat cancellation) is recovered, counted in telemetry,
// dumped to the flight recorder, and its domains are redistributed
// round-robin to the survivors for the remaining epochs. Training only
// fails outright when every worker is dead. With CheckpointEvery set it
// checkpoints the store at epoch boundaries, and with Resume it picks
// up from the store's last checkpoint.
func TrainWithStore(replica func() models.Model, serving models.Model, store Store, counterSrc interface{ Counters() Counters }, ds *data.Dataset, opts Options) *Result {
	opts = opts.WithDefaults()
	if opts.Workers > ds.NumDomains() {
		opts.Workers = ds.NumDomains()
	}
	if opts.SyncPush && !opts.CacheEnabled {
		panic("ps: SyncPush requires CacheEnabled (deferred pushes ride the cache protocol)")
	}

	// One training configuration for the whole run: every worker's DN
	// inner loop and the DR phase read it.
	cfg := framework.Config{
		Epochs: 1, BatchSize: opts.BatchSize, LR: opts.InnerLR,
		InnerOpt: opts.InnerOpt, SampleK: opts.SampleK, DRLR: opts.DRLR,
		Seed: opts.Seed, Telemetry: opts.Telemetry, Tracer: opts.Tracer,
	}.WithDefaults()

	// Partition domains round-robin across workers.
	sup := make([]*supervisedWorker, opts.Workers)
	for i := range sup {
		var domains []int
		for d := i; d < ds.NumDomains(); d += opts.Workers {
			domains = append(domains, d)
		}
		ws := store
		if opts.WrapStore != nil {
			ws = opts.WrapStore(i, store)
		}
		w := NewWorker(i, replica(), ds, domains, ws, opts.CacheEnabled, cfg)
		w.Metrics = opts.Metrics
		s := &supervisedWorker{w: w}
		w.OnBeat = func() { s.lastBeat.Store(time.Now().UnixNano()) }
		sup[i] = s
	}

	res := &Result{ResumedFrom: -1}

	// Resume: restore the store's last checkpoint and skip the epochs
	// it covers. A missing checkpoint (epoch -1) starts fresh; a
	// corrupt one fails loudly — training from silently wrong
	// parameters is worse than not training.
	startEpoch := 0
	cs, hasCkpt := store.(CheckpointStore)
	if opts.Resume {
		if !hasCkpt {
			panic("ps: Resume requires a store that implements CheckpointStore")
		}
		epoch, err := cs.LoadCheckpoint()
		if err != nil {
			panic(&framework.ResumeError{Err: fmt.Errorf("ps: resume: %w", err)})
		}
		if epoch > 0 {
			startEpoch = epoch
			res.ResumedFrom = epoch
		}
	}

	// DN phase: every epoch all live workers run their inner loops
	// concurrently; pushes are asynchronous, or — with SyncPush —
	// deferred and applied serially in worker-id order.
	for epoch := startEpoch; epoch < opts.Epochs; epoch++ {
		deaths := runSupervisedEpoch(sup, epoch, opts)
		for _, d := range deaths {
			markDead(sup, d, opts, res)
		}
		if live(sup) == 0 {
			panic(fmt.Sprintf("ps: all %d workers dead at epoch %d; cannot continue", opts.Workers, epoch))
		}
		if opts.CheckpointEvery > 0 && (epoch+1)%opts.CheckpointEvery == 0 {
			if !hasCkpt {
				panic("ps: CheckpointEvery requires a store that implements CheckpointStore")
			}
			if err := cs.SaveCheckpoint(epoch + 1); err != nil {
				panic(fmt.Sprintf("ps: checkpoint after epoch %d: %v", epoch, err))
			}
		}
	}

	// Assemble the serving state from the PS.
	shared := storeSnapshot(store, serving)
	st := &core.State{Model: serving, Shared: shared}
	for range ds.Domains {
		st.AddDomain()
	}

	// DR phase: core's, with the live workers' models as the replicas.
	// Workers hold the global feature storage, so helper domains may
	// come from anywhere, as in Algorithm 2; θ_i depends on θ_S and
	// Seed, not on how many workers are left to run it.
	if opts.UseDR {
		var replicas []models.Model
		for _, s := range sup {
			if !s.dead {
				replicas = append(replicas, s.w.Model)
			}
		}
		core.DomainRegularizationPhase(st, ds, cfg, rand.New(rand.NewSource(opts.Seed+777)), core.DROptions{}, replicas...)
		paramvec.Restore(serving.Parameters(), shared)
	}

	res.State = st
	if counterSrc != nil {
		res.Counters = counterSrc.Counters()
	}
	return res
}

// runSupervisedEpoch runs one epoch across the live workers and returns
// the workers that died doing it. Each worker gets a cancellable
// context; with a heartbeat timeout armed, a watchdog cancels workers
// that stop completing batches, and the worker's next batch boundary
// turns the cancellation into a recovered *WorkerAbort.
func runSupervisedEpoch(sup []*supervisedWorker, epoch int, opts Options) []death {
	var (
		mu     sync.Mutex
		deaths []death
		wg     sync.WaitGroup
	)
	watchdogDone := make(chan struct{})
	cancels := make([]context.CancelFunc, len(sup))

	now := time.Now().UnixNano()
	for i, s := range sup {
		if s.dead {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		s.lastBeat.Store(now)
		wg.Add(1)
		go func(i int, s *supervisedWorker) {
			defer wg.Done()
			defer cancel()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					deaths = append(deaths, death{worker: i, cause: r})
					mu.Unlock()
				}
			}()
			// Derived per (worker, epoch), as core.Fit derives its own: a
			// resumed or redistributed run replays epoch k's shuffles and
			// dropout masks without having run epochs 0..k-1.
			rng := core.EpochRNG(opts.Seed+int64(i), epoch)
			s.w.TrainEpoch(ctx, rng)
			if !opts.SyncPush {
				s.w.PushEpoch(ctx)
			}
		}(i, s)
	}

	// The watchdog must be fully stopped — not just signalled — before
	// this function returns: the caller's markDead writes the s.dead
	// flags the watchdog reads.
	var watchdogWG sync.WaitGroup
	if opts.HeartbeatTimeout > 0 {
		watchdogWG.Add(1)
		go func() {
			defer watchdogWG.Done()
			tick := time.NewTicker(opts.HeartbeatTimeout / 4)
			defer tick.Stop()
			for {
				select {
				case <-watchdogDone:
					return
				case <-tick.C:
					deadline := time.Now().Add(-opts.HeartbeatTimeout).UnixNano()
					for i, s := range sup {
						if cancels[i] != nil && !s.dead && s.lastBeat.Load() < deadline {
							cancels[i]()
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(watchdogDone)
	watchdogWG.Wait()

	// Deterministic mode: apply the epoch's deltas serially in
	// worker-id order. A failed push kills its worker here, exactly as
	// a failed async push would.
	if opts.SyncPush {
		died := map[int]bool{}
		for _, d := range deaths {
			died[d.worker] = true
		}
		for i, s := range sup {
			if s.dead || died[i] {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						deaths = append(deaths, death{worker: i, cause: r})
					}
				}()
				s.w.PushEpoch(context.Background())
			}()
		}
	}
	return deaths
}

// markDead declares worker d.worker dead: counts it, dumps the flight
// recorder with the cause (distinguishing supervisor aborts from
// organic panics), and hands its domains round-robin to the survivors
// for the remaining epochs.
func markDead(sup []*supervisedWorker, d death, opts Options, res *Result) {
	s := sup[d.worker]
	if s.dead {
		return
	}
	s.dead = true
	res.WorkerDeaths++
	opts.Metrics.observeWorkerDeath()

	kind := "panic"
	if _, ok := d.cause.(*WorkerAbort); ok {
		kind = "abort"
	}
	opts.Tracer.Flight().Trigger("worker_death", map[string]any{
		"worker": d.worker,
		"kind":   kind,
		"cause":  fmt.Sprint(d.cause),
	})

	var survivors []*supervisedWorker
	for _, o := range sup {
		if !o.dead {
			survivors = append(survivors, o)
		}
	}
	if len(survivors) == 0 {
		return // the epoch loop panics on a fully dead fleet
	}
	for n, dom := range s.w.Domains {
		o := survivors[n%len(survivors)]
		o.w.Domains = append(o.w.Domains, dom)
	}
	s.w.Domains = nil
}

// live counts workers not declared dead.
func live(sup []*supervisedWorker) int {
	n := 0
	for _, s := range sup {
		if !s.dead {
			n++
		}
	}
	return n
}

// Snapshotter is the optional fast path for reading a store's full
// state without going through the counted pull operations: the
// in-process Server and the cluster router both implement it, so
// snapshotting for evaluation never skews the synchronization-overhead
// counters.
type Snapshotter interface {
	Snapshot() paramvec.Vector
}

// storeSnapshot reads the full parameter state (dense + embeddings) from
// the store, aligned with the serving model's parameters.
func storeSnapshot(store Store, serving models.Model) paramvec.Vector {
	if s, ok := store.(Snapshotter); ok {
		return s.Snapshot()
	}
	ctx := context.Background()
	layout := store.Layout()
	params := serving.Parameters()
	out := paramvec.Snapshot(params)
	dense := store.PullDense(ctx)
	for t, vals := range dense {
		copy(out[t], vals)
	}
	for t := range params {
		if !layout.Embedding[t] {
			continue
		}
		rows := make([]int, layout.Rows[t])
		for r := range rows {
			rows[r] = r
		}
		vals := store.PullRows(ctx, t, rows)
		cols := layout.Cols[t]
		for r, v := range vals {
			copy(out[t][r*cols:(r+1)*cols], v)
		}
	}
	return out
}
