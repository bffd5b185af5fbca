package ps

import (
	"strconv"

	"mamdr/internal/telemetry"
)

// Metrics mirrors parameter-server traffic into a telemetry registry as
// live time series: the pull/push call and float counters that the ad
// hoc Counters struct has always tallied, plus per-tensor row-sync
// volume, the worker-side dynamic-cache hits and misses, and the
// distribution of row staleness (how many local batches a cached
// embedding row went without re-pulling from the PS — the quantity the
// paper's static/dynamic cache design bounds).
//
// One Metrics may be shared by a Server and all its Workers; every
// method is safe for concurrent use and nil-receiver-safe, so the
// uninstrumented path costs nothing.
type Metrics struct {
	densePulls, densePushes *telemetry.Counter
	rowPulls, rowPushes     *telemetry.Counter
	floats                  *telemetry.Counter
	cacheHits, cacheMisses  *telemetry.Counter
	staleness               *telemetry.Histogram

	pushFailures    *telemetry.Counter // pushes that failed after retries
	duplicatePushes *telemetry.Counter // retried pushes discarded by seq dedup
	workerDeaths    *telemetry.Counter // workers the supervisor declared dead

	rowSyncFloats *telemetry.Family[telemetry.Counter] // by tensor
	rpcFailures   *telemetry.Family[telemetry.Counter] // by method
	rpcRetries    *telemetry.Family[telemetry.Counter] // by method
}

// NewMetrics registers the PS series in reg. A nil registry yields a
// nil (disabled) Metrics.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		densePulls: reg.Counter("mamdr_ps_dense_pulls_total",
			"PullDense calls served by the parameter server."),
		densePushes: reg.Counter("mamdr_ps_dense_pushes_total",
			"PushDelta calls that carried dense tensor deltas."),
		rowPulls: reg.Counter("mamdr_ps_row_pulls_total",
			"Embedding rows pulled from the parameter server."),
		rowPushes: reg.Counter("mamdr_ps_row_pushes_total",
			"Embedding rows pushed to the parameter server."),
		floats: reg.Counter("mamdr_ps_floats_moved_total",
			"Float64 values moved between workers and the PS — the synchronization-overhead metric of the cache experiments."),
		cacheHits: reg.Counter("mamdr_ps_cache_hits_total",
			"Embedding rows resolved from the worker dynamic cache without a PS round trip."),
		cacheMisses: reg.Counter("mamdr_ps_cache_misses_total",
			"Embedding rows that missed the dynamic cache and were pulled from the PS."),
		staleness: reg.Histogram("mamdr_ps_row_staleness_batches",
			"Local mini-batches a cached embedding row aged between its PS pull and its delta push.",
			telemetry.ExponentialBuckets(1, 2, 9)),
		pushFailures: reg.Counter("mamdr_ps_push_failures_total",
			"Outer-loop delta pushes that failed after exhausting retries (each aborts its worker's epoch)."),
		duplicatePushes: reg.Counter("mamdr_ps_duplicate_pushes_total",
			"Retried pushes the server discarded via the (worker, seq) idempotency token."),
		workerDeaths: reg.Counter("mamdr_ps_worker_deaths_total",
			"Workers the trainer's supervisor declared dead (crash or missed heartbeats)."),
		rowSyncFloats: reg.CounterFamily("mamdr_ps_row_sync_floats_total",
			"Row-synchronized floats per embedding tensor.", "tensor"),
		rpcFailures: reg.CounterFamily("mamdr_ps_rpc_failures_total",
			"Failed worker-to-PS RPC calls by method (including failed retries).", "method"),
		rpcRetries: reg.CounterFamily("mamdr_ps_rpc_retries_total",
			"Worker-to-PS RPC retry attempts by method (jittered exponential backoff).", "method"),
	}
}

// observePushFailure counts one push that failed after exhausting its
// retry budget (push_failures_total).
func (m *Metrics) observePushFailure() {
	if m == nil {
		return
	}
	m.pushFailures.Inc()
}

// observeDuplicatePush counts one retried push the server discarded via
// sequence dedup.
func (m *Metrics) observeDuplicatePush() {
	if m == nil {
		return
	}
	m.duplicatePushes.Inc()
}

// observeWorkerDeath counts one worker the supervisor declared dead.
func (m *Metrics) observeWorkerDeath() {
	if m == nil {
		return
	}
	m.workerDeaths.Inc()
}

// observeRPCRetry counts one retry attempt by method.
func (m *Metrics) observeRPCRetry(method string) {
	if m == nil {
		return
	}
	m.rpcRetries.With(method).Inc()
}

// observeRPCFailure counts one failed RPC call by method.
func (m *Metrics) observeRPCFailure(method string) {
	if m == nil {
		return
	}
	m.rpcFailures.With(method).Inc()
}

// observeDensePull records one PullDense serving n floats.
func (m *Metrics) observeDensePull(n int) {
	if m == nil {
		return
	}
	m.densePulls.Inc()
	m.floats.Add(int64(n))
}

// observeRowPull records rows embedding rows pulled (n floats total)
// from tensor t.
func (m *Metrics) observeRowPull(t, rows, n int) {
	if m == nil {
		return
	}
	m.rowPulls.Add(int64(rows))
	m.floats.Add(int64(n))
	m.rowSyncFloats.With(strconv.Itoa(t)).Add(int64(n))
}

// observeDensePush records one push carrying dense deltas.
func (m *Metrics) observeDensePush() {
	if m == nil {
		return
	}
	m.densePushes.Inc()
}

// observeDenseFloats records n dense floats moved in a push.
func (m *Metrics) observeDenseFloats(n int) {
	if m == nil {
		return
	}
	m.floats.Add(int64(n))
}

// observeRowPush records rows embedding-row deltas (n floats total)
// pushed into tensor t.
func (m *Metrics) observeRowPush(t, rows, n int) {
	if m == nil {
		return
	}
	m.rowPushes.Add(int64(rows))
	m.floats.Add(int64(n))
	m.rowSyncFloats.With(strconv.Itoa(t)).Add(int64(n))
}

// observeCacheResolve records one batch's embedding-row resolution.
func (m *Metrics) observeCacheResolve(hits, misses int) {
	if m == nil {
		return
	}
	m.cacheHits.Add(int64(hits))
	m.cacheMisses.Add(int64(misses))
}

// observeStaleness records how many batches a row aged in the dynamic
// cache before its delta was pushed.
func (m *Metrics) observeStaleness(batches int) {
	if m == nil {
		return
	}
	m.staleness.Observe(float64(batches))
}
