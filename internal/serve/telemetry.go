package serve

import (
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// serveMetrics are the request-path instruments. All fields are safe
// for concurrent use; without a registry every one is nil and records
// nothing, so no call site branches on metrics being on.
type serveMetrics struct {
	poolTimeouts  *telemetry.Counter
	poolSize      *telemetry.Gauge
	writeFailures *telemetry.Counter

	// reg registers the snapshot identity series; snapshotInfo is the
	// one that reads 1.
	reg          *telemetry.Registry
	snapshotInfo *telemetry.Gauge

	// Scheduler instruments, one observation per flush: its shape,
	// queueing for a forward slot, rows relative to the row cap, and
	// why it left (the scheduler's three reasons).
	batchRequests  *telemetry.Histogram
	batchRows      *telemetry.Histogram
	batchWait      *telemetry.Histogram
	batchOccupancy *telemetry.Histogram
	flushes        *telemetry.Family[telemetry.Counter] // by reason

	requests  *telemetry.Family[telemetry.Counter]   // by status code
	latency   *telemetry.Family[telemetry.Histogram] // by domain
	scores    *telemetry.Family[telemetry.Histogram] // by domain
	sheds     *telemetry.Family[telemetry.Counter]   // by reason
	publishes *telemetry.Family[telemetry.Counter]   // by outcome
}

func newServeMetrics(reg *telemetry.Registry, replicas int) *serveMetrics {
	m := &serveMetrics{
		poolTimeouts: reg.Counter("mamdr_serve_pool_timeouts_total",
			"Predictions whose deadline passed before their scores (503 + Retry-After)."),
		poolSize: reg.Gauge("mamdr_serve_replica_pool_size",
			"Configured model-replica pool size: forward passes that run at once."),
		writeFailures: reg.Counter("mamdr_serve_write_failures_total",
			"Response body writes that failed after headers were sent (client gone, broken pipe)."),
		reg: reg,
		batchRequests: reg.Histogram("mamdr_serve_batch_requests",
			"Requests coalesced per micro-batch flush.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		batchRows: reg.Histogram("mamdr_serve_batch_rows",
			"User-item rows per micro-batch flush.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		batchWait: reg.Histogram("mamdr_serve_batch_wait_seconds",
			"How long each flush's oldest request queued for a forward slot (0 when one was idle).",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05}),
		batchOccupancy: reg.Histogram("mamdr_serve_batch_occupancy",
			"Flushed rows divided by the row cap (BatchMax, at least 1); an oversize request rides alone and reads 1.",
			telemetry.LinearBuckets(0.125, 0.125, 8)),
		flushes: reg.CounterFamily("mamdr_serve_batch_flushes_total",
			"Scheduler flushes by trigger (idle, slot, close).", "reason"),
		requests: reg.CounterFamily("mamdr_serve_requests_total",
			"HTTP requests by status code.", "code"),
		latency: reg.HistogramFamily("mamdr_serve_request_seconds",
			"Prediction latency by domain.", telemetry.DefBuckets, "domain"),
		scores: reg.HistogramFamily("mamdr_serve_scores",
			"Predicted click probabilities by domain.", telemetry.LinearBuckets(0.1, 0.1, 9), "domain"),
		sheds: reg.CounterFamily("mamdr_serve_shed_total",
			"Predictions shed by the admission gate before reaching the scheduler, by reason.", "reason"),
		publishes: reg.CounterFamily("mamdr_serve_publish_total",
			"Snapshot publication attempts, by outcome.", "outcome"),
	}
	// Declare the flush reasons and the status-code family up front so a
	// scrape before the first request still shows them.
	for _, reason := range []string{"idle", "slot", "close"} {
		m.flushes.With(reason)
	}
	m.poolSize.Set(float64(replicas))
	m.requests.With(strconv.Itoa(http.StatusOK))
	return m
}

// request counts one finished HTTP request by status code.
func (m *serveMetrics) request(code int) {
	m.requests.With(strconv.Itoa(code)).Inc()
}

// latencyFor returns the per-domain request latency histogram.
func (m *serveMetrics) latencyFor(domain string) *telemetry.Histogram {
	return m.latency.With(domain)
}

// scoreHistFor returns the per-domain served-score histogram — the
// live score distribution, the raw material of drift detection.
func (m *serveMetrics) scoreHistFor(domain string) *telemetry.Histogram {
	return m.scores.With(domain)
}

// shed counts one admission-gate rejection by reason ("queue_full",
// "deadline").
func (m *serveMetrics) shed(reason string) {
	m.sheds.With(reason).Inc()
}

// batchFlush records one scheduler flush: its request/row shape, the
// oldest rider's wait, the trigger reason, and the occupancy relative
// to the row cap.
func (m *serveMetrics) batchFlush(requests, rows int, waited time.Duration, reason string, maxRows int) {
	m.batchRequests.Observe(float64(requests))
	m.batchRows.Observe(float64(rows))
	m.batchWait.Observe(waited.Seconds())
	m.batchOccupancy.Observe(float64(min(rows, maxRows)) / float64(maxRows))
	m.flushes.With(reason).Inc()
}

// incumbent publishes the incumbent snapshot's identity as
// mamdr_snapshot_info{role="serve",version,crc} = 1 — the information
// is in the labels, as in mamdr_build_info — and zeroes the previous
// incumbent's series, so exactly one series reads 1. Callers serialize
// (boot, and installs under the server's mutex).
func (m *serveMetrics) incumbent(version uint64, crc uint32) {
	g := m.reg.Gauge("mamdr_snapshot_info",
		"Serving snapshot identity of this process; constant 1, the information is in the labels.",
		telemetry.L("crc", fmt.Sprintf("%08x", crc)),
		telemetry.L("role", "serve"),
		telemetry.L("version", strconv.FormatUint(version, 10)),
	)
	if m.snapshotInfo != g {
		m.snapshotInfo.Set(0)
	}
	m.snapshotInfo = g
	g.Set(1)
}

// publishOutcome counts one publication attempt ("accepted",
// "rejected").
func (m *serveMetrics) publishOutcome(outcome string) {
	m.publishes.With(outcome).Inc()
}

// writeFailure counts one failed response-body write.
func (m *serveMetrics) writeFailure() {
	m.writeFailures.Inc()
}

// timeout counts one prediction whose deadline passed before its
// scores.
func (m *serveMetrics) timeout() {
	m.poolTimeouts.Inc()
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
	if s.opts.Metrics == nil && logger == nil && tracer == nil {
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
		metrics.request(sw.code)
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
