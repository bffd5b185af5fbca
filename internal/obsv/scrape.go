// Package obsv is the fleet-observability layer: it federates the
// per-process telemetry registries of a distributed MAMDR deployment
// (trainer, PS shard hosts, serve replicas) into one pane of glass, burns
// SLO error budgets against the federated series, and holds the
// process harness the programs share (tracer, flight recorder, event
// log) and their one profiling mount, net/http/pprof on demand. It
// depends only on internal/telemetry, internal/trace, and the standard
// library.
package obsv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"mamdr/internal/telemetry"
)

// Target is one scrape endpoint: a process serving /metrics/snapshot
// over HTTP at Addr ("host:port") — a trainer or a PS shard host on its
// -metrics-addr, a serve frontend on its listener. A process is one
// target however many shards it hosts.
type Target struct {
	Role string
	Addr string
}

// String renders the target the way ParseTargets accepts it.
func (t Target) String() string {
	if t.Role == "" {
		return t.Addr
	}
	return t.Role + "=" + t.Addr
}

// ParseTargets parses a comma-separated scrape list. Each entry is
// either "host:port" or "role=host:port"; without a role the target is
// "unknown" (the snapshot's own Role, if set, wins either way).
func ParseTargets(s string) ([]Target, error) {
	var out []Target
	for _, raw := range strings.Split(s, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		t := Target{Addr: raw}
		if role, addr, ok := strings.Cut(raw, "="); ok {
			t.Role, t.Addr = role, addr
		}
		if _, _, err := net.SplitHostPort(t.Addr); err != nil {
			return nil, fmt.Errorf("obsv: bad scrape target %q: %w", raw, err)
		}
		if t.Role == "" {
			t.Role = "unknown"
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obsv: no scrape targets in %q", s)
	}
	return out, nil
}

// Scraper pulls RegistrySnapshots from targets. The zero value works;
// Timeout defaults to 3s per target.
type Scraper struct {
	Timeout time.Duration
}

func (s Scraper) timeout() time.Duration {
	if s.Timeout <= 0 {
		return 3 * time.Second
	}
	return s.Timeout
}

// Scrape fetches and validates one target's snapshot, filling in Role
// and Instance when the serving side left them blank.
func (s Scraper) Scrape(t Target) (telemetry.RegistrySnapshot, error) {
	snap, err := s.get(t.Addr)
	if err != nil {
		return snap, fmt.Errorf("obsv: scrape %s: %w", t, err)
	}
	if err := snap.Validate(); err != nil {
		return snap, fmt.Errorf("obsv: scrape %s: %w", t, err)
	}
	if snap.Role == "" {
		snap.Role = t.Role
	}
	if snap.Instance == "" {
		snap.Instance = t.Addr
	}
	return snap, nil
}

// get reads GET http://addr/metrics/snapshot.
func (s Scraper) get(addr string) (telemetry.RegistrySnapshot, error) {
	var snap telemetry.RegistrySnapshot
	client := http.Client{Timeout: s.timeout()}
	resp, err := client.Get("http://" + addr + "/metrics/snapshot")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("status %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// ScrapeResult pairs one target with its snapshot or scrape error.
type ScrapeResult struct {
	Target Target
	Snap   telemetry.RegistrySnapshot
	Err    error
}

// ScrapeAll scrapes every target concurrently and returns results in
// target order; failed targets carry their error instead of a snapshot.
func (s Scraper) ScrapeAll(targets []Target) []ScrapeResult {
	out := make([]ScrapeResult, len(targets))
	done := make(chan int, len(targets))
	for i, t := range targets {
		go func(i int, t Target) {
			snap, err := s.Scrape(t)
			out[i] = ScrapeResult{Target: t, Snap: snap, Err: err}
			done <- i
		}(i, t)
	}
	for range targets {
		<-done
	}
	return out
}
