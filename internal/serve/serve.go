// Package serve exposes a trained MAMDR state over HTTP, mirroring the
// serving side of the paper's Taobao MDR platform (Fig. 2): clients ask
// for click probabilities of user-item pairs under a given domain, and
// new domains can be registered at runtime (they serve with the shared
// parameters until their specific parameters are trained).
//
// Serving parameters for every domain (θ_S + θ_i, Eq. 4) live in an
// immutable snapshot that requests read through an atomic pointer, with
// no lock and no per-request copy: a forward binds a pooled model, which
// owns no parameters, to the snapshot by reference, and one scheduler
// (internal/batch) bounds how many forwards run at once. A server boots
// from a checkpoint file (Open) on the snapshot a publish of that file
// builds, or from a state in memory (NewWithOptions). Registrations and
// publications build a fresh snapshot off-path and install it
// atomically; in-flight requests keep the one they started with.
//
// Live rollout: with a rollout gate attached (SetRollout), a published
// snapshot serves a canary fraction of traffic, routed by request-ID
// hash, until the gate promotes or rolls it back through the Fleet
// interface this server implements. The incumbent stays pinned in
// memory meanwhile, so a rollback is a pointer drop: post-rollback
// predictions are bit-identical to never having published.
//
// Overload degrades instead of cascading: an admission gate sheds
// requests (503 + jittered Retry-After) before the queue for a forward
// slot outgrows its bound.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mamdr/internal/batch"
	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/faultinject"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/quality"
	"mamdr/internal/rollout"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// Options configures the serving path.
type Options struct {
	// Replicas is how many forward passes run at once: the scheduler's
	// slot count, one pre-built model replica per slot. Defaults to
	// GOMAXPROCS. Without a ReplicaFactory the only replica is the
	// state's own model, so Replicas is forced to 1.
	Replicas int
	// ReplicaFactory builds the model replicas (Open's every one), of the
	// served structure (same Config including Seed). The server keeps
	// their structure and drops their parameter storage: every forward
	// reads the snapshot it is bound to.
	ReplicaFactory func() models.Model
	// RequestTimeout bounds a prediction from admission to its scores; one
	// still waiting for a forward slot when it passes gets 503 +
	// Retry-After. Each flush's forward is bounded by it too. Default 5s.
	RequestTimeout time.Duration
	// Metrics, when non-nil, receives the serving instruments —
	// per-domain latency histograms, flush shape and queueing,
	// per-status-code request counters — and is exposed at GET /metrics
	// on the server's handler.
	Metrics *telemetry.Registry
	// AccessLog, when non-nil, emits one structured log line per
	// request, carrying a request ID that is also returned in the
	// X-Request-ID response header.
	AccessLog *slog.Logger
	// Tracer, when non-nil, opens one trace per request — a
	// serve.request root span keyed to the X-Request-ID, its
	// serve.batch_wait and, under that, the serve.predict of the flush
	// that carried it — exposes GET /debug/trace?sec=N capture-on-demand,
	// and raises a pool_saturation anomaly into the tracer's flight
	// recorder when a prediction's deadline passes before its scores.
	Tracer *trace.Tracer
	// MaxQueue bounds how many admitted predictions may wait for a
	// forward slot beyond the Replicas executing; requests past it are
	// shed immediately (503 + jittered Retry-After) instead of piling
	// onto the queue. Default 4×Replicas.
	MaxQueue int
	// ShedSeed seeds the Retry-After jitter (default 1): deterministic
	// under test, spread out enough that a synchronized client herd
	// does not come back as one wave.
	ShedSeed int64
	// Faults, when non-nil, injects deterministic serving-path faults
	// for chaos drills under the operation names "Predict" and
	// "PublishSource".
	Faults *faultinject.Injector
	// OnSwap, when non-nil, runs after a snapshot becomes the incumbent
	// — every immediate publish and promotion — with the new
	// incumbent's version and envelope CRC (0 when sourced outside
	// a checkpoint). Called without internal locks held.
	OnSwap func(version uint64, crc uint32)
	// Quality, when non-nil, turns on model-quality observability:
	// every successful prediction feeds per-domain score-distribution
	// histograms and the tracker's drift windows, responses carry a
	// request_id, and POST /feedback joins delayed labels back to
	// their predictions so prequential AUC/calibration accrue from
	// live traffic.
	Quality *quality.Tracker
	// FeedbackTTL bounds how long a prediction waits in the feedback
	// join buffer for its labels. Default 2 minutes.
	FeedbackTTL time.Duration
	// BatchMax caps the rows one forward pass may coalesce. Every
	// prediction goes through one scheduler: one that finds a slot free
	// runs at once, alone; predictions that arrive while all Replicas are
	// busy queue, and each slot that frees up takes the longest-waiting
	// domain's queue, up to this many rows, in one forward. 0 (or 1)
	// means one request per forward.
	BatchMax int
	// SnapshotQuant selects how serving snapshots supply embedding
	// rows: "off" (default) composes θ_S[row] + θ_i[row] in float64 as
	// a lookup gathers it; "int8" stores each domain's composed tables
	// symmetric-per-row quantized (internal/quant) and decodes each
	// gathered row straight into the lookup's buffer. Models without
	// learned embedding tables serve exactly as "off".
	SnapshotQuant string
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.ReplicaFactory == nil {
		o.Replicas = 1
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.Replicas
	}
	if o.ShedSeed == 0 {
		o.ShedSeed = 1
	}
	return o
}

// view is what the request path reads in one atomic load: the
// incumbent snapshot, the canary snapshot under evaluation (nil when
// none), and the versions/CRCs that key them to their checkpoint
// envelopes. Both snapshots are immutable; keeping the incumbent in
// the same view pins the last known good in memory for the entire
// canary evaluation, so a rollback is a pointer drop and post-rollback
// predictions are bit-identical to never having published.
type view struct {
	incumbent, canary       *snapshot
	incumbentV, canaryV     uint64
	incumbentCRC, canaryCRC uint32
	fraction                float64
}

// arm is one side of a rollout as a request sees it: the snapshot that
// serves it and the version its scores are attributed to.
type arm struct {
	snap    *snapshot
	version uint64
}

// armFor deterministically assigns a request to the canary arm by
// hashing its request ID against the traffic fraction: the same ID
// always lands on the same arm, so retries and replays are comparable
// and tests can pick their arm by picking their X-Request-ID. A domain
// the canary does not serve stays on the incumbent.
func (v *view) armFor(rid string, domain int) arm {
	if v.canary != nil && domain >= 0 && domain < v.canary.numDomains() && routeToCanary(rid, v.fraction) {
		return arm{v.canary, v.canaryV}
	}
	return arm{v.incumbent, v.incumbentV}
}

func routeToCanary(rid string, fraction float64) bool {
	h := fnv.New32a()
	h.Write([]byte(rid))
	return float64(h.Sum32())/float64(1<<32) < fraction
}

// replica is one pooled model instance, held exclusively by one flush
// at a time and bound to a snapshot only for the length of a forward.
type replica struct {
	model   models.Model
	binding *paramvec.Binding
}

// Server serves predictions from a MAMDR state. All handlers are safe
// for concurrent use.
type Server struct {
	dataset *data.Dataset
	opts    Options

	// mu serializes snapshot changes (AddDomain, Publish,
	// promote/rollback). Reads never take it: they load view.
	mu sync.Mutex
	// pendingBaseline is the staged canary's quality baseline: applied
	// on promote, dropped on rollback. Guarded by mu.
	pendingBaseline *quality.Baseline

	view atomic.Pointer[view]
	// pool is the free list of replicas. The scheduler never runs more
	// than Replicas flushes at once, so a flush always finds one here.
	pool chan *replica

	// rollout is the canary gate, attached via SetRollout after
	// construction (the controller needs the server as its Fleet).
	rollout atomic.Pointer[rollout.Controller]

	// draining flips on SIGTERM: /readyz starts failing so load
	// balancers stop routing here, while in-flight requests finish.
	draining atomic.Bool

	// pending counts requests inside the predict handler (queued or
	// executing); the admission gate sheds off it.
	pending atomic.Int64
	// svcEWMA is the exponentially-weighted mean forward-pass time in
	// seconds, as math.Float64bits — the service-time estimate behind
	// the deadline-aware shed.
	svcEWMA atomic.Uint64
	shedMu  sync.Mutex
	shedRng *rand.Rand

	metrics  *serveMetrics
	quality  *quality.Tracker
	feedback *quality.JoinBuffer

	// layout tells snapshots how to compose for the served model;
	// coalescer schedules every /predict onto a forward slot.
	layout    *layout
	coalescer *batch.Coalescer
}

// gate returns the attached rollout controller, nil when none; every
// rollout.Controller method is nil-receiver-safe.
func (s *Server) gate() *rollout.Controller { return s.rollout.Load() }

// SetRollout attaches the canary gate. Publish stages snapshots as
// canaries only once a gate is attached; without one it swaps
// immediately.
func (s *Server) SetRollout(c *rollout.Controller) { s.rollout.Store(c) }

// NewWithOptions builds a server over a state handed in memory and the
// dataset that resolves its features. The state's model is replica 0,
// never written; v1 serves the state's vectors by reference, CRC 0. A
// bad SnapshotQuant or replica layout panics (Open returns an error).
func NewWithOptions(state *core.State, dataset *data.Dataset, opts Options) *Server {
	s, err := newServer(state.Model, state.Spec, dataset, opts)
	if err != nil {
		panic(err.Error())
	}
	s.installLocked(s.composeState(state), 1, 0, nil) // s is not shared yet
	return s
}

// Open builds a server over a checkpoint read by core.ReadState (env
// its envelope) and the dataset its spec names. Every replica comes from
// opts.ReplicaFactory, and v1 is the file's snapshot as a publish of it
// builds it (fileSnapshot), with the envelope's CRC and the file's
// quality baseline. A checkpoint without a dataset digest is refused.
func Open(ck core.Checkpoint, env core.Envelope, dataset *data.Dataset, opts Options) (*Server, error) {
	if opts.ReplicaFactory == nil {
		return nil, errors.New("serve: Open needs a ReplicaFactory")
	}
	if ck.Spec.DataSHA256 == "" {
		return nil, errors.New("serve: the checkpoint records no dataset digest (written before checkpoints recorded one, or not by mamdr-train -save): re-save it with mamdr-train -save")
	}
	s, err := newServer(bare(opts.ReplicaFactory()), ck.Spec, dataset, opts)
	if err != nil {
		return nil, err
	}
	snap, err := s.fileSnapshot(ck)
	if err != nil {
		return nil, err
	}
	if ck.Quality == nil {
		s.quality.SetBaseline(nil) // counted as a load that carried none
	}
	s.installLocked(snap, 1, env.CRC, ck.Quality) // s is not shared yet
	return s, nil
}

// newServer is both constructors' body: model, trained on spec, is
// replica 0, and every other replica must match its layout.
func newServer(model models.Model, spec framework.Spec, dataset *data.Dataset, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		dataset: dataset,
		opts:    opts,
		pool:    make(chan *replica, opts.Replicas),
		layout:  newLayout(model, spec),
	}
	switch opts.SnapshotQuant {
	case "", "off":
	case "int8":
		// A model without learned embedding tables (the fixed-feature
		// presets) has nothing to quantize and serves as "off".
		s.layout.int8 = len(s.layout.tables) > 0
	default:
		return nil, fmt.Errorf("serve: unknown SnapshotQuant %q (off or int8)", opts.SnapshotQuant)
	}
	s.pool <- &replica{model: model, binding: paramvec.NewBinding(s.layout.params)}
	for i := 1; i < opts.Replicas; i++ {
		m := opts.ReplicaFactory()
		if err := s.layout.Same(models.LayoutOf(m.Parameters(), models.EmbeddingTablesOf(m))); err != nil {
			return nil, fmt.Errorf("serve: replica %d against the served model: %w", i, err)
		}
		s.pool <- &replica{model: bare(m), binding: paramvec.NewBinding(m.Parameters())}
	}
	s.metrics = newServeMetrics(opts.Metrics, opts.Replicas)
	s.shedRng = rand.New(rand.NewSource(opts.ShedSeed))
	if opts.Quality != nil {
		s.quality = opts.Quality
		s.feedback = quality.NewJoinBuffer(opts.FeedbackTTL, nil)
	}
	maxRows := max(opts.BatchMax, 1)
	s.coalescer = batch.New(batch.Options{
		MaxRows: maxRows,
		Slots:   opts.Replicas,
		Run:     s.runBatch,
		OnFlush: func(_ int, requests, rows int, waited time.Duration, reason string) {
			s.metrics.batchFlush(requests, rows, waited, reason, maxRows)
		},
	})
	return s, nil
}

// bare drops m's parameter storage: a replica reads its bound snapshot.
func bare(m models.Model) models.Model {
	for _, p := range m.Parameters() {
		p.Data, p.Grad = nil, nil
	}
	return m
}

// ErrDomainsFixed is AddDomain's refusal on a model with per-domain
// towers (models.DomainTowered): the structure has no sub-network to
// route a new domain id through.
var ErrDomainsFixed = errors.New("serve: the model has per-domain towers and cannot serve a domain registered after it was built")

// AddDomain registers a new domain at runtime and publishes a snapshot
// that serves it with the shared parameters (its specific vector is
// empty). It returns the new domain id, or ErrDomainsFixed — with
// nothing registered — when the model cannot route one more domain.
// The state the server was built over is not changed.
func (s *Server) AddDomain() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.view.Load()
	id := old.incumbent.numDomains()
	if n, bounded := models.DomainCapacity(s.layout.model); bounded && id >= n {
		return 0, ErrDomainsFixed
	}
	// Only the new domain is missing; existing compositions are
	// immutable and carried over by extend.
	nv := *old
	nv.incumbent = old.incumbent.extend(id)
	// A staged canary must stay domain-aligned with the incumbent, or a
	// later promote would silently lose the registration.
	if old.canary != nil {
		nv.canary = old.canary.extend(id)
	}
	s.view.Store(&nv)
	return id, nil
}

// installLocked makes snap the incumbent under version/crc and applies
// its frozen quality baseline, if any. Caller holds mu and is
// responsible for invoking OnSwap after unlocking.
func (s *Server) installLocked(snap *snapshot, version uint64, crc uint32, baseline *quality.Baseline) {
	s.view.Store(&view{incumbent: snap, incumbentV: version, incumbentCRC: crc})
	s.metrics.incumbent(version, crc)
	if baseline != nil && s.quality != nil {
		s.quality.SetBaseline(baseline)
	}
}

// PredictRequest asks for click probabilities of user-item pairs in one
// domain.
type PredictRequest struct {
	Domain int   `json:"domain"`
	Users  []int `json:"users"`
	Items  []int `json:"items"`
}

// PredictResponse carries the probabilities aligned with the request
// pairs. RequestID is set when quality observability is enabled: echo
// it in a later POST /feedback to join the eventual click/no-click
// labels back to these predictions.
type PredictResponse struct {
	Probabilities []float64 `json:"probabilities"`
	RequestID     string    `json:"request_id,omitempty"`
}

// FeedbackRequest delivers delayed labels for an earlier prediction,
// identified by the request_id the PredictResponse carried. Labels
// align with that request's user-item pairs (>0.5 = click).
type FeedbackRequest struct {
	RequestID string    `json:"request_id"`
	Labels    []float64 `json:"labels"`
}

// FeedbackResponse reports a successful label join.
type FeedbackResponse struct {
	Domain string `json:"domain"`
	Joined int    `json:"joined"`
}

// DomainsResponse describes the served domains.
type DomainsResponse struct {
	NumDomains int      `json:"num_domains"`
	Names      []string `json:"names"`
}

// AddDomainResponse reports a runtime domain registration.
type AddDomainResponse struct {
	ID int `json:"id"`
}

// SetDraining marks the server as draining (or not): while draining,
// /readyz returns 503 so load balancers route new traffic elsewhere,
// but /healthz stays green and in-flight requests complete — the
// standard graceful-shutdown handshake.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Close closes the request scheduler: requests it holds still complete,
// later ones get a clean 503. Call it once the HTTP server accepts no
// more connections. Models are bound only while a forward runs, so after
// it the state's model is on its own parameters.
func (s *Server) Close() { s.coalescer.Close() }

// Handler returns the HTTP routes:
//
//	POST /predict     {domain, users[], items[]} -> {probabilities[], request_id}
//	POST /feedback    {request_id, labels[]} -> {domain, joined}
//	                  (when Options.Quality is set: joins delayed labels
//	                  to the prediction served under that request ID)
//	GET  /domains     -> {num_domains, names[]}
//	POST /domains     -> {id}   (registers a new domain; 409 when the
//	                             model has per-domain towers)
//	GET  /healthz     -> 200 ok (liveness: the process serves HTTP)
//	GET  /readyz      -> 200 when ready to take traffic: a model
//	                     snapshot is published, at least one replica is
//	                     free, and the server is not draining; 503
//	                     otherwise, with the reason in the body. The
//	                     body carries the incumbent snapshot version
//	                     (and canary state when applicable).
//	GET  /metrics     -> Prometheus text exposition (when Options.Metrics is set)
//
//	POST /admin/publish  {path, version?} -> {version, crc, canary, fraction}
//	                     (stages a new snapshot: as a canary when a
//	                     rollout gate is attached, else an immediate swap)
//	GET  /admin/rollout  -> incumbent/canary versions + gate status
//	POST /admin/rollback -> rolls back the in-flight canary manually
//
// A body that does not decode or validate is a 400 (413 past
// maxBodyBytes), an unknown domain or request_id a 404, a publish source
// that fails a 422 and a publication Publish refuses a 409. /predict
// answers 503 + Retry-After when shed, when its deadline passes before
// its scores, or after Close, and 499 when its client hung up first.
//
// With Options.Metrics or Options.AccessLog set, every response carries
// an X-Request-ID header, status codes are counted, and one structured
// log line is emitted per request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	if s.quality != nil {
		mux.HandleFunc("/feedback", s.handleFeedback)
	}
	mux.HandleFunc("/domains", s.handleDomains)
	mux.HandleFunc("/admin/publish", s.handleAdminPublish)
	mux.HandleFunc("/admin/rollout", s.handleRolloutStatus)
	mux.HandleFunc("/admin/rollback", s.handleAdminRollback)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	if s.opts.Metrics != nil {
		mux.Handle("/metrics", s.opts.Metrics.Handler())
		mux.Handle("/metrics/snapshot", telemetry.SnapshotHandler("serve", "", s.opts.Metrics))
	}
	if s.opts.Tracer != nil {
		mux.Handle("/debug/trace", trace.CaptureHandler(s.opts.Tracer))
	}
	return s.instrument(mux)
}

// handleReady is the readiness probe: unlike /healthz (alive at all),
// it answers 200 only when the server can actually serve a prediction
// right now — a replica is free (a request would not queue) and no drain
// is in progress. A snapshot is always published: the constructor
// installs the first.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case len(s.pool) == 0:
		http.Error(w, "replica pool saturated", http.StatusServiceUnavailable)
	default:
		v := s.view.Load()
		if v.canary != nil {
			fmt.Fprintf(w, "ready v%d crc=%08x (canary v%d at %.0f%%)\n",
				v.incumbentV, v.incumbentCRC, v.canaryV, v.fraction*100)
			return
		}
		fmt.Fprintf(w, "ready v%d crc=%08x\n", v.incumbentV, v.incumbentCRC)
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Admission gate: shed before decoding the body, before the queue —
	// a request that would only wait out its deadline in the queue fails
	// in microseconds with a Retry-After instead.
	admitted := s.pending.Add(1)
	defer s.pending.Add(-1)
	if reason := s.shedReason(admitted); reason != "" {
		s.shed(w, reason)
		return
	}
	var req PredictRequest
	if !s.decodePredict(w, r, &req) {
		return
	}
	if len(req.Users) != len(req.Items) {
		http.Error(w, "users and items must align", http.StatusBadRequest)
		return
	}
	if len(req.Users) == 0 {
		http.Error(w, "empty request", http.StatusBadRequest)
		return
	}

	// One atomic load pins this request's world: incumbent, canary, and
	// the fraction. The request ID is resolved before routing so the
	// canary assignment is deterministic per ID.
	rid := w.Header().Get("X-Request-ID")
	if rid == "" {
		rid = requestID(r)
		w.Header().Set("X-Request-ID", rid)
	}
	job := &predictJob{rid: rid, arm: s.view.Load().armFor(rid, req.Domain)}
	if req.Domain < 0 || req.Domain >= job.arm.snap.numDomains() {
		http.Error(w, fmt.Sprintf("unknown domain %d", req.Domain), http.StatusNotFound)
		return
	}
	job.ins = make([]data.Interaction, len(req.Users))
	for i := range req.Users {
		if req.Users[i] < 0 || req.Users[i] >= s.dataset.NumUsers {
			http.Error(w, fmt.Sprintf("unknown user %d", req.Users[i]), http.StatusBadRequest)
			return
		}
		if req.Items[i] < 0 || req.Items[i] >= s.dataset.NumItems {
			http.Error(w, fmt.Sprintf("unknown item %d", req.Items[i]), http.StatusBadRequest)
			return
		}
		job.ins[i] = data.Interaction{User: req.Users[i], Item: req.Items[i]}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	// The job rides a flush, which re-resolves its arm (same
	// ID-deterministic assignment) from ONE view load per flush.
	switch err := s.viaCoalescer(ctx, req.Domain, job); {
	case err == nil:
	case errors.Is(err, batch.ErrClosed):
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	case errors.Is(err, context.DeadlineExceeded):
		// Tell well-behaved clients when to come back: every slot is
		// busy now, so a retry sooner than a second will likely wait again.
		w.Header().Set("Retry-After", "1")
		s.metrics.timeout()
		http.Error(w, "no model replica available", http.StatusServiceUnavailable)
		return
	case errors.Is(err, context.Canceled):
		// Nobody reads this answer; it is counted, but not as a 5xx.
		http.Error(w, "client closed request", statusClientClosed)
		return
	default:
		http.Error(w, "prediction failed: "+err.Error(), http.StatusInternalServerError)
		return
	}

	// The response tail, in exactly this order: quality recording, gate
	// observation, JSON write, per-domain latency.
	domain := job.arm.snap.names[req.Domain]
	resp := PredictResponse{Probabilities: job.probs}
	if s.quality != nil {
		resp.RequestID = s.recordPrediction(rid, domain, job.arm.version, job.probs)
	}
	// The gate compares arms on the dense score signal; with no
	// canary in flight this is a no-op.
	s.gate().ObserveScores(job.arm.version, job.probs)
	s.writePredict(w, r, resp)
	s.metrics.latencyFor(domain).Observe(time.Since(start).Seconds())
}

// statusClientClosed answers a request whose client hung up before its
// scores (nginx's 499): not a server error, and not saturation.
const statusClientClosed = 499

// predictJob is one validated /predict request on its way through
// execute: the arm that serves it goes in, its scores come out.
type predictJob struct {
	rid   string
	ins   []data.Interaction
	arm   arm
	probs []float64
}

// execute is the one execution path of a prediction: one arm of a flush
// takes a replica off the free list, runs the "Predict" chaos hook, binds
// → Forward → unbinds, puts the replica back and folds the pass into the
// service-time EWMA. The riders' jobs share one forward over a's snapshot
// and each gets its slice of the scores.
func (s *Server) execute(ctx context.Context, a arm, domain int, riders []*batch.Item) error {
	// A lone job's pairs are the batch as they are; batchmates append to
	// a copy (the capped slice forces one), never into job 0's array.
	first := riders[0].Data.(*predictJob).ins
	ins := first[:len(first):len(first)]
	for _, it := range riders[1:] {
		ins = append(ins, it.Data.(*predictJob).ins...)
	}
	b := s.dataset.MakeBatch(domain, ins)
	name := a.snap.names[domain]

	rep := <-s.pool // never waits: see Server.pool
	defer func() { s.pool <- rep }()
	// Chaos hook: a "Predict" fault holds or fails this replica the way a
	// slow or broken forward pass would; every rider of it sees the error.
	if err := s.opts.Faults.Eval("Predict").Apply(ctx); err != nil {
		return err
	}

	start := time.Now()
	_, span := trace.Start(ctx, "serve.predict",
		trace.A("domain", name), trace.A("requests", len(riders)),
		trace.A("pairs", len(ins)), trace.A("snapshot_version", a.version))
	// The composition is shared and read-only; the replica is exclusively
	// ours while it is out of the pool.
	rep.binding.Bind(*a.snap.comp(domain))
	logits := rep.model.Forward(b, false)
	rep.binding.Unbind()
	probs := framework.SigmoidAll(logits)
	logits.Release()
	span.End()
	// The EWMA sees the pass's wall time spread over its riders — the
	// marginal replica cost per request, which is what the admission
	// gate's drain-time projection prices (see observeServiceTime).
	s.observeServiceTime(time.Since(start), len(riders))
	off := 0
	for _, it := range riders {
		j := it.Data.(*predictJob)
		n := len(j.ins)
		j.probs = probs[off : off+n : off+n]
		off += n
	}
	return nil
}

// recordPrediction feeds the quality tracker with the served scores and
// parks them in the feedback join buffer under the request ID, stamped
// with the snapshot version that produced them — when the labels come
// back mid-canary they credit the arm that actually served, never the
// other one. Returns the ID.
func (s *Server) recordPrediction(rid, domain string, version uint64, probs []float64) string {
	scoreHist := s.metrics.scoreHistFor(domain)
	scores := make([]float32, len(probs))
	for i, p := range probs {
		scoreHist.Observe(p)
		scores[i] = float32(p)
	}
	s.quality.ObserveScores(domain, probs)
	s.quality.FeedbackEvicted(s.feedback.Put(rid, quality.PendingPrediction{Domain: domain, Scores: scores, Version: version}))
	return rid
}

// handleFeedback joins delayed labels to an earlier prediction. An
// unknown, expired, or already-consumed request ID is a 404 (and a
// feedback-miss in the metrics); labels that do not align with the
// original pair count are a 400, and consume the pending entry — a
// malformed join cannot be retried into a double count.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req FeedbackRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.RequestID == "" {
		http.Error(w, "request_id required", http.StatusBadRequest)
		return
	}
	pending, ok := s.feedback.Take(req.RequestID)
	if !ok {
		s.quality.FeedbackMissed()
		http.Error(w, "unknown or expired request_id", http.StatusNotFound)
		return
	}
	if len(req.Labels) != len(pending.Scores) {
		http.Error(w, fmt.Sprintf("%d labels for %d predictions", len(req.Labels), len(pending.Scores)),
			http.StatusBadRequest)
		return
	}
	scores := make([]float64, len(pending.Scores))
	labels := make([]bool, len(req.Labels))
	for i := range pending.Scores {
		scores[i] = float64(pending.Scores[i])
		labels[i] = req.Labels[i] > 0.5
	}
	s.quality.ObserveLabeled(pending.Domain, scores, labels)
	s.quality.FeedbackJoined()
	// Labeled evidence also drives the canary gate, routed by the
	// version stamped at predict time — labels for a snapshot that
	// matches neither arm are dropped there, not misattributed.
	s.gate().ObserveLabeled(pending.Version, scores, labels)
	s.writeJSON(w, r, FeedbackResponse{Domain: pending.Domain, Joined: len(labels)})
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		snap := s.view.Load().incumbent
		s.writeJSON(w, r, DomainsResponse{NumDomains: snap.numDomains(), Names: snap.names})
	case http.MethodPost:
		id, err := s.AddDomain()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		s.writeJSON(w, r, AddDomainResponse{ID: id})
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

// maxBodyBytes caps a request body.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body, read up to maxBodyBytes, into v. On
// failure it has answered 413 (body too large) or 400 and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return s.decodeFrom(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// decodeFrom is decodeBody on a body already limited by
// http.MaxBytesReader.
func (s *Server) decodeFrom(w http.ResponseWriter, body io.Reader, v any) bool {
	err := json.NewDecoder(body).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

// writeJSON encodes v into a buffer before touching the ResponseWriter,
// so an encoding failure can still produce a clean 500 instead of a 200
// header followed by a truncated body. A failed body write — the client
// hung up, or the connection broke mid-response — cannot be reported to
// the client anymore, so it is counted (mamdr_serve_write_failures_total)
// and logged once per request ID instead of being silently dropped.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeBody(w, r, buf.Bytes())
}

// writeBody writes an encoded JSON body with its Content-Type.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		s.metrics.writeFailure()
		if sw, ok := w.(*statusWriter); ok {
			if sw.writeFailLogged {
				return
			}
			sw.writeFailLogged = true
		}
		if s.opts.AccessLog != nil {
			s.opts.AccessLog.LogAttrs(r.Context(), slog.LevelWarn, "response write failed",
				slog.String("request_id", w.Header().Get("X-Request-ID")),
				slog.String("path", r.URL.Path),
				slog.String("error", err.Error()))
		}
	}
}
