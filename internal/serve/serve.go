// Package serve exposes a trained MAMDR state over HTTP, mirroring the
// serving side of the paper's Taobao MDR platform (Fig. 2): clients ask
// for click probabilities of user-item pairs under a given domain, and
// new domains can be registered at runtime (they serve with the shared
// parameters until their specific parameters are trained).
//
// The server is built for concurrent traffic. Serving parameters for
// every domain (θ_S + θ_i, Eq. 4) live in an immutable snapshot that
// requests read through an atomic pointer — no global lock and no
// per-request parameter copy: a forward pass binds a pooled model to
// the snapshot by reference (dense tensors point at the domain's
// composed dense segments, embedding rows are composed as the lookup
// gathers them) and unbinds it afterwards. The pool bounds how many
// forwards run at once; its models own no parameters of their own.
// Domain registration and live publications build a fresh
// snapshot off-path and install it atomically; in-flight requests keep
// serving the snapshot they started with.
//
// Live rollout: Publish stages a new versioned snapshot next to the
// incumbent. With a rollout gate attached (SetRollout), the new
// snapshot serves only a canary fraction of traffic — requests are
// routed deterministically by request-ID hash — while the gate compares
// the two arms' live quality and then promotes or rolls back through
// the Fleet interface this server implements. The incumbent snapshot
// is immutable and stays pinned in memory for the whole evaluation, so
// a rollback is a pointer drop: post-rollback predictions are
// bit-identical to never having published.
//
// Overload and upstream failure degrade instead of cascading: an
// admission gate sheds requests (503 + jittered Retry-After) before
// the replica pool saturates, and a circuit breaker on the serve→PS
// upstream keeps /readyz green — serving the last good snapshot with a
// staleness gauge — when the cluster behind it dies.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
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
	"mamdr/internal/ps"
	"mamdr/internal/quality"
	"mamdr/internal/quant"
	"mamdr/internal/rollout"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// Upstream describes the PS cluster backing this server's parameters:
// a health probe and a snapshot source for live publication. Both are
// wrapped in the server's circuit breaker and fault-injection hooks.
type Upstream struct {
	// Ping probes shard connectivity.
	Ping func(ctx context.Context) error
	// Snapshot pulls a fresh shared-parameter vector from the cluster —
	// the publish source behind POST /admin/publish {"source":"upstream"}.
	// Optional; nil disables upstream-sourced publication.
	Snapshot func() (paramvec.Vector, error)
}

// Options configures the serving path.
type Options struct {
	// Replicas is the model-replica pool size; each in-flight prediction
	// holds one replica for the duration of its forward pass. Defaults
	// to GOMAXPROCS. Without a ReplicaFactory the pool holds only the
	// state's own model, so Replicas is forced to 1.
	Replicas int
	// ReplicaFactory builds additional model replicas structurally
	// identical to the state's model (same Config including Seed). The
	// server keeps their structure and drops their parameter storage:
	// every forward reads the snapshot it is bound to.
	ReplicaFactory func() models.Model
	// RequestTimeout bounds how long a prediction waits for a free
	// replica before returning 503. Default 5s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body size. Default 1 MiB.
	MaxBodyBytes int64
	// Metrics, when non-nil, receives the serving instruments —
	// per-domain latency histograms, replica-pool wait and saturation,
	// per-status-code request counters — and is exposed at GET /metrics
	// on the server's handler.
	Metrics *telemetry.Registry
	// AccessLog, when non-nil, emits one structured log line per
	// request, carrying a request ID that is also returned in the
	// X-Request-ID response header.
	AccessLog *slog.Logger
	// Tracer, when non-nil, opens one trace per request — a
	// serve.request root span keyed to the X-Request-ID with pool-wait
	// and predict child spans — exposes GET /debug/trace?sec=N
	// capture-on-demand, and raises a pool_saturation anomaly into the
	// tracer's flight recorder when a prediction times out waiting for
	// a replica.
	Tracer *trace.Tracer
	// Upstream, when non-nil, connects this server to the snapshot
	// source backing it — PS/shard connectivity when the state was
	// loaded from a cluster. /readyz probes Upstream.Ping after the
	// local checks, through a circuit breaker: transient failures fail
	// readiness (the load balancer steers away), but once
	// UpstreamThreshold consecutive probes fail the breaker opens and
	// the server degrades instead — /readyz goes green again, serving
	// the last good snapshot with a staleness gauge, because a dead PS
	// cluster must not take the whole serving fleet out with it.
	Upstream *Upstream
	// UpstreamThreshold is the consecutive-failure count that opens
	// the upstream circuit breaker. Default 3.
	UpstreamThreshold int
	// UpstreamBackoff paces upstream probes while the breaker is open
	// (zero value takes the ps package defaults).
	UpstreamBackoff ps.Backoff
	// MaxQueue bounds how many admitted predictions may wait for a
	// replica beyond the ones executing; requests past it are shed
	// immediately (503 + jittered Retry-After) instead of piling onto
	// the pool. Default 4×Replicas.
	MaxQueue int
	// ShedSeed seeds the Retry-After jitter (default 1): deterministic
	// under test, spread out enough that a synchronized client herd
	// does not come back as one wave.
	ShedSeed int64
	// Faults, when non-nil, injects deterministic serving-path faults
	// for chaos drills under the operation names "Predict",
	// "PublishSource", "UpstreamPing", and "UpstreamSnapshot".
	Faults *faultinject.Injector
	// OnSwap, when non-nil, runs after a snapshot becomes the incumbent
	// — every immediate publish and promotion — with the new
	// incumbent's version and envelope CRC (0 when sourced outside
	// a checkpoint). Called without internal locks held.
	OnSwap func(version uint64, crc uint32)
	// InitialVersion and InitialCRC label the snapshot the server boots
	// with, normally the loaded checkpoint's envelope identity.
	// InitialVersion defaults to 1.
	InitialVersion uint64
	InitialCRC     uint32
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
	// BatchMax enables request coalescing when > 0: a prediction that
	// finds a replica free runs at once, alone; predictions that arrive
	// while all Replicas are busy queue, and each replica that frees up
	// takes the longest-waiting domain's queue, up to this many rows, in
	// one forward pass. 0 keeps the inline one-request-per-forward path.
	BatchMax int
	// SnapshotQuant selects how serving snapshots supply embedding
	// rows: "off" (default) composes θ_S[row] + θ_i[row] in float64 as
	// a lookup gathers it; "int8" stores each domain's composed tables
	// symmetric-per-row quantized (internal/quant) and decodes gathered
	// rows through a hot-row dequantization cache. Models without
	// learned embedding tables serve exactly as "off".
	SnapshotQuant string
	// QuantCacheRows caps the shared dequantization LRU (rows held
	// decoded across all domains and snapshots). Default 4096.
	QuantCacheRows int
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
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.Replicas
	}
	if o.ShedSeed == 0 {
		o.ShedSeed = 1
	}
	if o.UpstreamThreshold <= 0 {
		o.UpstreamThreshold = 3
	}
	if o.InitialVersion == 0 {
		o.InitialVersion = 1
	}
	if o.QuantCacheRows <= 0 {
		o.QuantCacheRows = 4096
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

// replica is one pooled model instance, held exclusively by one request
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

	// mu serializes state mutations (AddDomain, Publish,
	// promote/rollback). Reads never take it: they load view.
	mu    sync.Mutex
	state *core.State
	// pendingState/pendingBaseline back the staged canary: installed on
	// promote, dropped on rollback. Guarded by mu.
	pendingState    *core.State
	pendingBaseline *quality.Baseline

	view atomic.Pointer[view]
	pool chan *replica

	// rollout is the canary gate, attached via SetRollout after
	// construction (the controller needs the server as its Fleet).
	rollout atomic.Pointer[rollout.Controller]

	// draining flips on SIGTERM: /readyz starts failing so load
	// balancers stop routing here, while in-flight requests finish.
	draining atomic.Bool

	// pending counts requests inside the predict handler (queued or
	// executing); the admission gate sheds off it before the pool
	// saturates.
	pending atomic.Int64
	// svcEWMA is the exponentially-weighted mean forward-pass time in
	// seconds, as math.Float64bits — the service-time estimate behind
	// the deadline-aware shed.
	svcEWMA atomic.Uint64
	shedMu  sync.Mutex
	shedRng *rand.Rand

	upstream *upstreamMonitor

	metrics  *serveMetrics
	quality  *quality.Tracker
	feedback *quality.JoinBuffer

	// layout tells snapshots how to compose for the served model;
	// coalescer, when non-nil (Options.BatchMax), schedules /predict.
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

// New builds a server over a trained state and its dataset with default
// options (single replica, 5s request timeout, 1 MiB bodies). The
// dataset supplies the global feature storage needed to resolve field
// values.
func New(state *core.State, dataset *data.Dataset) *Server {
	return NewWithOptions(state, dataset, Options{})
}

// NewWithOptions builds a server with explicit concurrency options. It
// panics if a factory-built replica's parameters do not align with the
// state's shared vector — a mismatched replica would serve garbage.
func NewWithOptions(state *core.State, dataset *data.Dataset, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		dataset: dataset,
		opts:    opts,
		state:   state,
		pool:    make(chan *replica, opts.Replicas),
	}
	// The state's own model is replica 0: it keeps its storage (the
	// caller's θ_S) and is bound around it, never written.
	params := state.Model.Parameters()
	s.pool <- &replica{model: state.Model, binding: paramvec.NewBinding(params)}
	for i := 1; i < opts.Replicas; i++ {
		m := opts.ReplicaFactory()
		own := m.Parameters()
		if len(own) != len(state.Shared) {
			panic(fmt.Sprintf("serve: replica %d has %d tensors, state has %d", i, len(own), len(state.Shared)))
		}
		for t, p := range own {
			if p.Size() != len(state.Shared[t]) {
				panic(fmt.Sprintf("serve: replica %d tensor %d has %d entries, state has %d",
					i, t, p.Size(), len(state.Shared[t])))
			}
			p.Data, p.Grad = nil, nil // a skeleton: shape only
		}
		s.pool <- &replica{model: m, binding: paramvec.NewBinding(own)}
	}
	s.layout = &layout{model: state.Model, params: params, tables: models.EmbeddingTablesOf(state.Model)}
	switch opts.SnapshotQuant {
	case "", "off":
	case "int8":
		// Left nil when the model has no learned embedding tables (the
		// fixed-feature presets): nothing to quantize, serve as "off".
		if len(s.layout.tables) > 0 {
			s.layout.cache = quant.NewRowCache(opts.QuantCacheRows)
		}
	default:
		panic(fmt.Sprintf("serve: unknown SnapshotQuant %q (off or int8)", opts.SnapshotQuant))
	}
	s.view.Store(&view{
		incumbent:    s.composeState(state),
		incumbentV:   opts.InitialVersion,
		incumbentCRC: opts.InitialCRC,
	})
	s.metrics = newServeMetrics(opts.Metrics, opts.Replicas)
	s.metrics.snapshotVersions(opts.InitialVersion, 0)
	s.shedRng = rand.New(rand.NewSource(opts.ShedSeed))
	s.upstream = newUpstreamMonitor(opts.Upstream, opts.Faults, opts.Metrics,
		opts.UpstreamThreshold, opts.UpstreamBackoff)
	if opts.Quality != nil {
		s.quality = opts.Quality
		s.feedback = quality.NewJoinBuffer(0, opts.FeedbackTTL, nil)
	}
	if opts.BatchMax > 0 {
		s.coalescer = batch.New(batch.Options{
			MaxRows: opts.BatchMax,
			Slots:   opts.Replicas,
			Run:     s.runBatch,
			OnFlush: func(_ int, requests, rows int, waited time.Duration, reason string) {
				s.metrics.batchFlush(requests, rows, waited, reason, opts.BatchMax)
			},
		})
	}
	return s
}

// ErrDomainsFixed is AddDomain's refusal on a model with per-domain
// towers (models.DomainTowered): the structure has no sub-network to
// route a new domain id through.
var ErrDomainsFixed = errors.New("serve: the model has per-domain towers and cannot serve a domain registered after it was built")

// AddDomain registers a new domain at runtime and publishes a snapshot
// that serves it with the shared parameters (its specific vector starts
// at zero). It returns the new domain id, or ErrDomainsFixed — with
// nothing registered — when the model cannot route one more domain.
func (s *Server) AddDomain() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, bounded := models.DomainCapacity(s.layout.model); bounded && len(s.state.Specific) >= n {
		return 0, ErrDomainsFixed
	}
	id := s.state.AddDomain()
	// Only the new domain is missing; existing compositions are
	// immutable and carried over by extend.
	old := s.view.Load()
	nv := *old
	nv.incumbent = old.incumbent.extend(s.state.Specific[id], id)
	// A staged canary must stay domain-aligned with the incumbent, or a
	// later promote would silently lose the registration.
	if s.pendingState != nil {
		s.pendingState.AddDomain()
		nv.canary = old.canary.extend(s.pendingState.Specific[id], id)
	}
	s.view.Store(&nv)
	return id, nil
}

// installLocked makes (state, snap) the incumbent under version/crc and
// applies its frozen quality baseline, if any. Caller holds mu and is
// responsible for invoking OnSwap after unlocking.
func (s *Server) installLocked(state *core.State, snap *snapshot, version uint64, crc uint32, baseline *quality.Baseline) {
	s.state = state
	s.view.Store(&view{incumbent: snap, incumbentV: version, incumbentCRC: crc})
	s.metrics.snapshotVersions(version, 0)
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

// Close closes the request coalescer (if batching is on): requests it
// holds still complete, later ones get a clean 503. Call it once the HTTP
// server accepts no more connections. Models are bound only while a
// forward runs, so after it the state's model is on its own parameters.
func (s *Server) Close() {
	if s.coalescer != nil {
		s.coalescer.Close()
	}
}

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
//	                     (and canary/degraded state when applicable).
//	GET  /metrics     -> Prometheus text exposition (when Options.Metrics is set)
//
//	POST /admin/publish  {path | source:"upstream", version?} -> {version, crc, canary, fraction}
//	                     (stages a new snapshot: as a canary when a
//	                     rollout gate is attached, else an immediate swap)
//	GET  /admin/rollout  -> incumbent/canary versions + gate status
//	POST /admin/rollback -> rolls back the in-flight canary manually
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
// right now — a snapshot is published, the replica pool has a free
// replica, and no drain is in progress.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.view.Load() == nil:
		http.Error(w, "no model snapshot loaded", http.StatusServiceUnavailable)
	case len(s.pool) == 0:
		http.Error(w, "replica pool saturated", http.StatusServiceUnavailable)
	default:
		v := s.view.Load()
		degraded, err := s.upstream.check(r.Context())
		switch {
		case err != nil && !degraded:
			// Transient upstream failure, breaker still closed: fail
			// readiness so the load balancer steers away while it lasts.
			http.Error(w, "upstream: "+err.Error(), http.StatusServiceUnavailable)
		case degraded:
			// Breaker open: the upstream is persistently gone, but the
			// last good snapshot still serves. Staying ready keeps the
			// fleet up; the staleness gauge keeps operators honest.
			fmt.Fprintf(w, "ready v%d crc=%08x (degraded: upstream down, serving last good snapshot: %v)\n",
				v.incumbentV, v.incumbentCRC, err)
		case v.canary != nil:
			fmt.Fprintf(w, "ready v%d crc=%08x (canary v%d at %.0f%%)\n",
				v.incumbentV, v.incumbentCRC, v.canaryV, v.fraction*100)
		default:
			fmt.Fprintf(w, "ready v%d crc=%08x\n", v.incumbentV, v.incumbentCRC)
		}
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Admission gate: shed before decoding the body, before the pool —
	// a request that would only wait out its deadline in the queue fails
	// in microseconds with a Retry-After instead.
	admitted := s.pending.Add(1)
	defer s.pending.Add(-1)
	if reason := s.shedReason(admitted); reason != "" {
		s.shed(w, reason)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
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
	var err error
	if s.coalescer != nil {
		// Micro-batched: the job rides a flush, which re-resolves its arm
		// (same ID-deterministic assignment) from ONE view load per batch.
		err = s.viaCoalescer(ctx, req.Domain, job)
	} else {
		err = s.execute(ctx, job.arm, req.Domain, []*predictJob{job})
	}
	switch {
	case err == nil:
	case errors.Is(err, batch.ErrClosed):
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	case errors.Is(err, errNoReplica), errors.Is(err, context.DeadlineExceeded):
		// Tell well-behaved clients when to come back: the pool is
		// saturated now, so a retry sooner than a second will likely
		// block again.
		w.Header().Set("Retry-After", "1")
		s.metrics.timeout()
		http.Error(w, "no model replica available", http.StatusServiceUnavailable)
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
	s.writeJSON(w, r, resp)
	s.metrics.latencyFor(domain).Observe(time.Since(start).Seconds())
}

// errNoReplica is a prediction's replica-acquisition timeout; the
// handler answers it with 503 + Retry-After.
var errNoReplica = errors.New("serve: no model replica available")

// predictJob is one validated /predict request on its way through
// execute: the arm that serves it goes in, its scores come out.
type predictJob struct {
	rid   string
	ins   []data.Interaction
	arm   arm
	probs []float64
}

// execute is the one execution path of a prediction — a lone request
// (the inline handler passes a group of one) and one arm of a coalesced
// flush alike: acquire a replica, run the "Predict" chaos hook, bind →
// Forward → unbind, release, fold the pass into the service-time EWMA.
// All jobs share one forward over a's snapshot and each gets its slice
// of the scores. A replica that does not free up before ctx ends is
// errNoReplica.
func (s *Server) execute(ctx context.Context, a arm, domain int, jobs []*predictJob) error {
	// A lone job's pairs are the batch as they are; batchmates append to
	// a copy (the capped slice forces one), never into job 0's array.
	ins := jobs[0].ins[:len(jobs[0].ins):len(jobs[0].ins)]
	for _, j := range jobs[1:] {
		ins = append(ins, j.ins...)
	}
	b := s.dataset.MakeBatch(domain, ins)
	name := a.snap.names[domain]

	waitStart := time.Now()
	// pool_wait and predict are siblings under the caller's span:
	// pool_wait has ended by the time predict starts, so nesting predict
	// under it would place a child outside its parent's time bounds.
	_, waitSpan := trace.Start(ctx, "serve.pool_wait")
	var rep *replica
	select {
	case rep = <-s.pool:
	case <-ctx.Done():
		waitSpan.EndWith(trace.A("timeout", true))
		fields := map[string]any{
			"domain":     name,
			"replicas":   s.opts.Replicas,
			"timeout_ms": s.opts.RequestTimeout.Milliseconds(),
		}
		if tc := trace.ContextOf(ctx); tc.Valid() {
			fields["trace_id"], fields["span_id"] = tc.TraceID, tc.SpanID
		}
		s.opts.Tracer.Flight().Trigger("pool_saturation", fields)
		return errNoReplica
	}
	waitSpan.End()
	s.metrics.acquire(time.Since(waitStart))
	defer func() {
		s.pool <- rep
		s.metrics.release()
	}()
	// Chaos hook: a "Predict" fault holds or fails this replica the way a
	// slow or broken forward pass would; every rider of it sees the error.
	if err := s.opts.Faults.Eval("Predict").Apply(ctx); err != nil {
		return err
	}

	start := time.Now()
	_, span := trace.Start(ctx, "serve.predict",
		trace.A("domain", name), trace.A("requests", len(jobs)),
		trace.A("pairs", len(ins)), trace.A("snapshot_version", a.version))
	// The composition is shared and read-only; the replica is exclusively
	// ours while it is out of the pool.
	rep.binding.Bind(*a.snap.comp(domain))
	logits := rep.model.Forward(b, false)
	rep.binding.Unbind()
	probs := framework.SigmoidAll(logits)
	logits.Release()
	span.End()
	if c := s.layout.cache; c != nil {
		s.metrics.quantCache(c.Stats())
	}
	// The EWMA sees the pass's wall time spread over its riders — the
	// marginal replica cost per request, which is what the admission
	// gate's drain-time projection prices (see observeServiceTime).
	s.observeServiceTime(time.Since(start), len(jobs))
	off := 0
	for _, j := range jobs {
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
	s.feedback.Put(rid, quality.PendingPrediction{Domain: domain, Scores: scores, Version: version})
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
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req FeedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.RequestID == "" {
		http.Error(w, "request_id required", http.StatusBadRequest)
		return
	}
	pending, ok := s.feedback.Take(req.RequestID)
	s.quality.SyncEvictions(s.feedback.Evictions())
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
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
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
