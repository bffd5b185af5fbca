package serve

import (
	"context"
	"sync"
	"time"

	"mamdr/internal/faultinject"
	"mamdr/internal/ps"
	"mamdr/internal/telemetry"
)

// upstreamMonitor is the circuit breaker on the serve→PS path. Probes
// run through it on every /readyz; while the breaker is closed each
// probe hits the real upstream and a failure fails readiness. Once
// upstreamThreshold consecutive probes fail, the breaker opens: the
// server degrades to serving its last good snapshot (readyz green,
// staleness gauge climbing) and re-probes only on the seeded backoff
// schedule — a dead cluster is asked occasionally, not hammered.
type upstreamMonitor struct {
	up     *Upstream
	faults *faultinject.Injector
	bo     ps.Backoff
	now    func() time.Time

	healthyGauge *telemetry.Gauge
	staleGauge   *telemetry.Gauge

	mu          sync.Mutex
	consecutive int
	open        bool
	probes      int
	nextProbe   time.Time
	lastHealthy time.Time
	lastErr     error
}

// upstreamThreshold is the consecutive-failure count that opens the
// breaker.
const upstreamThreshold = 3

// newUpstreamMonitor returns nil (all methods nil-safe) when no
// upstream is configured.
func newUpstreamMonitor(up *Upstream, faults *faultinject.Injector, reg *telemetry.Registry, bo ps.Backoff) *upstreamMonitor {
	if up == nil || up.Ping == nil {
		return nil
	}
	m := &upstreamMonitor{
		up:     up,
		faults: faults,
		bo:     bo.WithDefaults(),
		now:    time.Now,
	}
	m.lastHealthy = m.now()
	if reg != nil {
		m.healthyGauge = reg.Gauge("mamdr_serve_upstream_healthy",
			"1 while the PS upstream answers probes, 0 while the circuit breaker considers it down.")
		m.staleGauge = reg.Gauge("mamdr_serve_upstream_stale_seconds",
			"Seconds since the upstream last answered a probe — how stale the served snapshot may be while degraded.")
		m.healthyGauge.Set(1)
	}
	return m
}

// check runs one breaker-mediated probe. It returns (degraded, err):
// (false, nil) healthy; (false, err) failing but breaker still closed —
// the caller should fail readiness; (true, err) breaker open — the
// caller should stay ready and report degraded service.
func (m *upstreamMonitor) check(ctx context.Context) (bool, error) {
	if m == nil {
		return false, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()

	if m.open && now.Before(m.nextProbe) {
		// Open breaker, probe budgeted away: report degraded from the
		// cached verdict without touching the dead upstream.
		m.setGauges(now)
		return true, m.lastErr
	}

	err := m.faults.Eval("UpstreamPing").Apply(ctx)
	if err == nil {
		err = m.up.Ping(ctx)
	}
	if err == nil {
		m.consecutive, m.probes, m.open = 0, 0, false
		m.lastErr = nil
		m.lastHealthy = now
		m.setGauges(now)
		return false, nil
	}

	m.consecutive++
	m.lastErr = err
	if !m.open && m.consecutive >= upstreamThreshold {
		m.open = true
		m.probes = 0
	}
	if m.open {
		m.probes++
		attempt := m.probes
		if attempt > m.bo.Attempts {
			attempt = m.bo.Attempts
		}
		m.nextProbe = now.Add(m.bo.Delay(attempt))
	}
	m.setGauges(now)
	return m.open, err
}

// setGauges publishes the health bit and snapshot staleness. Caller
// holds mu.
func (m *upstreamMonitor) setGauges(now time.Time) {
	if m.healthyGauge == nil {
		return
	}
	if m.lastErr == nil {
		m.healthyGauge.Set(1)
		m.staleGauge.Set(0)
		return
	}
	m.healthyGauge.Set(0)
	m.staleGauge.Set(now.Sub(m.lastHealthy).Seconds())
}
