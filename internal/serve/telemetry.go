package serve

import (
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// serveMetrics are the request-path instruments. All fields are safe
// for concurrent use; the struct itself is nil when metrics are
// disabled (every method is nil-receiver-safe).
type serveMetrics struct {
	reg *telemetry.Registry

	poolWait      *telemetry.Histogram
	poolTimeouts  *telemetry.Counter
	saturation    *telemetry.Gauge
	poolSize      *telemetry.Gauge
	writeFailures *telemetry.Counter

	snapshotVersion *telemetry.Gauge
	canaryVersion   *telemetry.Gauge

	// Micro-batching instruments (Options.BatchMax > 0): flush shape,
	// queueing for a replica, and batch rows relative to BatchMax.
	batchRequests  *telemetry.Histogram
	batchRows      *telemetry.Histogram
	batchWait      *telemetry.Histogram
	batchOccupancy *telemetry.Histogram

	// Quantized-snapshot instruments (Options.SnapshotQuant = "int8").
	quantHits   *telemetry.Gauge
	quantMisses *telemetry.Gauge
	quantRatio  *telemetry.Gauge

	// codeCounters, latencies, and scoreHists cache instrument pointers
	// so the hot request path skips the registry's mutex-guarded lookup
	// (the registry is get-or-create, so a racing double-create is
	// benign — both callers get the same series).
	codeCounters  sync.Map // int -> *telemetry.Counter
	latencies     sync.Map // string -> *telemetry.Histogram
	scoreHists    sync.Map // string -> *telemetry.Histogram
	shedCounters  sync.Map // string -> *telemetry.Counter
	flushCounters sync.Map // string -> *telemetry.Counter

	inflight atomic.Int64
	replicas int
}

func newServeMetrics(reg *telemetry.Registry, replicas int) *serveMetrics {
	if reg == nil {
		return nil
	}
	m := &serveMetrics{
		reg: reg,
		poolWait: reg.Histogram("mamdr_serve_pool_wait_seconds",
			"Time a prediction waited for a free model replica.", telemetry.DefBuckets),
		poolTimeouts: reg.Counter("mamdr_serve_pool_timeouts_total",
			"Predictions that timed out waiting for a replica (503 + Retry-After)."),
		saturation: reg.Gauge("mamdr_serve_pool_saturation",
			"In-flight predictions divided by the replica-pool size."),
		poolSize: reg.Gauge("mamdr_serve_replica_pool_size",
			"Configured model-replica pool size."),
		writeFailures: reg.Counter("mamdr_serve_write_failures_total",
			"Response body writes that failed after headers were sent (client gone, broken pipe)."),
		snapshotVersion: reg.Gauge("mamdr_serve_snapshot_version",
			"Version of the incumbent serving snapshot."),
		canaryVersion: reg.Gauge("mamdr_serve_canary_version",
			"Version of the canary snapshot taking traffic (0 when none)."),
		batchRequests: reg.Histogram("mamdr_serve_batch_requests",
			"Requests coalesced per micro-batch flush.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		batchRows: reg.Histogram("mamdr_serve_batch_rows",
			"User-item rows per micro-batch flush.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		batchWait: reg.Histogram("mamdr_serve_batch_wait_seconds",
			"How long each flushed batch's oldest request queued for a free replica (0 when one was idle).",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05}),
		batchOccupancy: reg.Histogram("mamdr_serve_batch_occupancy",
			"Flushed batch rows divided by the configured BatchMax.",
			telemetry.LinearBuckets(0.125, 0.125, 8)),
		quantHits: reg.Gauge("mamdr_serve_quant_cache_hits_total",
			"Cumulative dequantization row-cache hits."),
		quantMisses: reg.Gauge("mamdr_serve_quant_cache_misses_total",
			"Cumulative dequantization row-cache misses (int8 decodes)."),
		quantRatio: reg.Gauge("mamdr_serve_quant_cache_hit_ratio",
			"Dequantization row-cache hit ratio over the process lifetime."),
		replicas: replicas,
	}
	m.poolSize.Set(float64(replicas))
	// Declare the status-code counter family up front so a scrape
	// before the first request still shows it.
	m.requestCounter(http.StatusOK).Add(0)
	return m
}

// requestCounter returns the per-status-code request counter.
func (m *serveMetrics) requestCounter(code int) *telemetry.Counter {
	if m == nil {
		return nil
	}
	if v, ok := m.codeCounters.Load(code); ok {
		return v.(*telemetry.Counter)
	}
	c := m.reg.Counter("mamdr_serve_requests_total",
		"HTTP requests by status code.", telemetry.L("code", strconv.Itoa(code)))
	m.codeCounters.Store(code, c)
	return c
}

// latencyFor returns the per-domain request latency histogram.
func (m *serveMetrics) latencyFor(domain string) *telemetry.Histogram {
	if m == nil {
		return nil
	}
	if v, ok := m.latencies.Load(domain); ok {
		return v.(*telemetry.Histogram)
	}
	h := m.reg.Histogram("mamdr_serve_request_seconds",
		"Prediction latency by domain.", telemetry.DefBuckets, telemetry.L("domain", domain))
	m.latencies.Store(domain, h)
	return h
}

// scoreHistFor returns the per-domain served-score histogram — the
// live score distribution, the raw material of drift detection.
func (m *serveMetrics) scoreHistFor(domain string) *telemetry.Histogram {
	if m == nil {
		return nil
	}
	if v, ok := m.scoreHists.Load(domain); ok {
		return v.(*telemetry.Histogram)
	}
	h := m.reg.Histogram("mamdr_serve_scores",
		"Predicted click probabilities by domain.",
		telemetry.LinearBuckets(0.1, 0.1, 9), telemetry.L("domain", domain))
	m.scoreHists.Store(domain, h)
	return h
}

// shed counts one admission-gate rejection by reason ("queue_full",
// "deadline").
func (m *serveMetrics) shed(reason string) {
	if m == nil {
		return
	}
	c, ok := m.shedCounters.Load(reason)
	if !ok {
		c = m.reg.Counter("mamdr_serve_shed_total",
			"Predictions shed by the admission gate before reaching the replica pool, by reason.",
			telemetry.L("reason", reason))
		m.shedCounters.Store(reason, c)
	}
	c.(*telemetry.Counter).Inc()
}

// batchFlush records one coalescer flush: its request/row shape, the
// oldest rider's wait, the trigger reason, and the occupancy relative
// to the configured batch bound.
func (m *serveMetrics) batchFlush(requests, rows int, waited time.Duration, reason string, maxRows int) {
	if m == nil {
		return
	}
	m.batchRequests.Observe(float64(requests))
	m.batchRows.Observe(float64(rows))
	m.batchWait.Observe(waited.Seconds())
	m.batchOccupancy.Observe(float64(rows) / float64(maxRows))
	c, ok := m.flushCounters.Load(reason)
	if !ok {
		c = m.reg.Counter("mamdr_serve_batch_flushes_total",
			"Micro-batch flushes by trigger (idle, slot, close).",
			telemetry.L("reason", reason))
		m.flushCounters.Store(reason, c)
	}
	c.(*telemetry.Counter).Inc()
}

// quantCache publishes the dequantization cache's cumulative counters.
func (m *serveMetrics) quantCache(hits, misses int64) {
	if m == nil {
		return
	}
	m.quantHits.Set(float64(hits))
	m.quantMisses.Set(float64(misses))
	if total := hits + misses; total > 0 {
		m.quantRatio.Set(float64(hits) / float64(total))
	}
}

// snapshotVersions publishes the live snapshot identities (canary 0
// when none is flying).
func (m *serveMetrics) snapshotVersions(incumbent, canary uint64) {
	if m == nil {
		return
	}
	m.snapshotVersion.Set(float64(incumbent))
	m.canaryVersion.Set(float64(canary))
}

// publishOutcome counts one publication attempt ("accepted",
// "rejected").
func (m *serveMetrics) publishOutcome(outcome string) {
	if m == nil {
		return
	}
	m.reg.Counter("mamdr_serve_publish_total",
		"Snapshot publication attempts, by outcome.",
		telemetry.L("outcome", outcome)).Inc()
}

// writeFailure counts one failed response-body write.
func (m *serveMetrics) writeFailure() {
	if m == nil {
		return
	}
	m.writeFailures.Inc()
}

// acquire/release bracket a replica checkout and keep the saturation
// gauge current.
func (m *serveMetrics) acquire(waited time.Duration) {
	if m == nil {
		return
	}
	m.poolWait.Observe(waited.Seconds())
	n := m.inflight.Add(1)
	m.saturation.Set(float64(n) / float64(m.replicas))
}

// timeout counts one pool-acquisition timeout. Nil-safe: the timeout
// path must work on metrics-less servers too.
func (m *serveMetrics) timeout() {
	if m == nil {
		return
	}
	m.poolTimeouts.Inc()
}

func (m *serveMetrics) release() {
	if m == nil {
		return
	}
	n := m.inflight.Add(-1)
	m.saturation.Set(float64(n) / float64(m.replicas))
}

// --- request IDs and the instrumented handler chain ---

// ridPrefix distinguishes processes; ridSeq distinguishes requests.
var (
	ridPrefix = fmt.Sprintf("%08x", rand.Uint32())
	ridSeq    atomic.Uint64
)

// requestID honors an inbound X-Request-ID (so IDs propagate through
// proxies) or mints a process-unique one.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		return id
	}
	return fmt.Sprintf("%s-%06d", ridPrefix, ridSeq.Add(1))
}

// statusWriter captures the response status and size for counters and
// access logs.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
	// writeFailLogged suppresses repeat write-failure log lines for the
	// same request (the counter still counts every failure).
	writeFailLogged bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// instrument wraps the route mux with the observability chain: a
// request ID on every response, per-status-code counters, a
// serve.request root span keyed to that ID, and one structured
// access-log line per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	metrics, logger, tracer := s.metrics, s.opts.AccessLog, s.opts.Tracer
	if metrics == nil && logger == nil && tracer == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := requestID(r)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		sw.Header().Set("X-Request-ID", rid)
		ctx, span := trace.Start(tracer.Context(r.Context()), "serve.request",
			trace.A("rid", rid), trace.A("method", r.Method), trace.A("path", r.URL.Path))
		next.ServeHTTP(sw, r.WithContext(ctx))
		span.EndWith(trace.A("status", sw.code))
		metrics.requestCounter(sw.code).Inc()
		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("request_id", rid),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.code),
				slog.Int("bytes", sw.bytes),
				slog.Duration("duration", time.Since(start)),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}
