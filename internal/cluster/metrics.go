package cluster

import (
	"strconv"

	"mamdr/internal/ps"
	"mamdr/internal/telemetry"
)

// Metrics mirrors the router's scatter-gather activity into a telemetry
// registry as per-shard time series: pull/push latency, floats moved,
// replicas condemned and replica failovers per shard, plus the partition
// plan's static load (per-shard element counts; the imbalance, their
// max over their mean, is in the plan line the trainers log). Like
// ps.Metrics, every method is nil-receiver-safe, so the uninstrumented
// path costs nothing.
type Metrics struct {
	elements  *telemetry.Family[telemetry.Gauge]     // by shard
	latency   *telemetry.Family[telemetry.Histogram] // by shard, op: seconds
	floats    *telemetry.Family[telemetry.Counter]   // by shard, op: floats moved
	failures  *telemetry.Family[telemetry.Counter]   // by shard: replicas condemned
	failovers *telemetry.Family[telemetry.Counter]   // by shard: reads retried on another replica
}

// NewMetrics registers the cluster series in reg. A nil registry yields
// a nil (disabled) Metrics.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		elements: reg.GaugeFamily("mamdr_cluster_shard_elements",
			"Float64 elements owned by each parameter-server shard under the partition plan.", "shard"),
		latency: reg.HistogramFamily("mamdr_cluster_shard_op_seconds",
			"Latency of scatter-gather calls to each parameter-server shard, by operation.",
			telemetry.ExponentialBuckets(1e-5, 2, 16), "shard", "op"),
		floats: reg.CounterFamily("mamdr_cluster_shard_floats_total",
			"Float64 values moved to or from each parameter-server shard, by operation.", "shard", "op"),
		failures: reg.CounterFamily("mamdr_cluster_shard_failures_total",
			"Shard replicas the router condemned after a failed call (each is counted once and serves no further reads or writes).", "shard"),
		failovers: reg.CounterFamily("mamdr_cluster_failovers_total",
			"Reads served by a backup replica after the shard's primary failed.", "shard"),
	}
}

// BindPlan exports the partition plan's static load shape: one
// element-count gauge per shard.
func (m *Metrics) BindPlan(p ps.Plan) {
	if m == nil {
		return
	}
	for sh := 0; sh < p.NumShards; sh++ {
		m.elements.With(strconv.Itoa(sh)).Set(float64(p.Elements(sh)))
	}
}

// observeShardOp records one completed shard call: its latency and the
// floats it moved, labeled by shard and operation (pull_dense,
// pull_rows, push_delta).
func (m *Metrics) observeShardOp(sh int, op string, seconds float64, floats int) {
	if m == nil {
		return
	}
	shard := strconv.Itoa(sh)
	m.latency.With(shard, op).Observe(seconds)
	m.floats.With(shard, op).Add(int64(floats))
}

// observeCondemned counts one replica of shard sh condemned after a
// failed call.
func (m *Metrics) observeCondemned(sh int) {
	if m == nil {
		return
	}
	m.failures.With(strconv.Itoa(sh)).Inc()
}

// observeFailover counts one read that had to move past a dead or
// failing replica of shard sh.
func (m *Metrics) observeFailover(sh int) {
	if m == nil {
		return
	}
	m.failovers.With(strconv.Itoa(sh)).Inc()
}
