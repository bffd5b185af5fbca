package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// SnapshotVersion is the wire version of RegistrySnapshot. Decoders
// must reject snapshots from a different version instead of guessing —
// a silently misread bucket layout would corrupt every federated
// histogram downstream.
const SnapshotVersion = 1

// SeriesSnapshot is one time series captured at a point in time. For
// counters and gauges only Value is set; for histograms Buckets carries
// the raw (non-cumulative) per-bucket counts — len(bounds)+1, the last
// being the +Inf overflow — plus the observation Sum and Count.
//
// All fields are exported so the snapshot travels as JSON, the body of
// /metrics/snapshot.
type SeriesSnapshot struct {
	Labels  []Label `json:"labels,omitempty"`
	Value   float64 `json:"value"`
	Buckets []int64 `json:"buckets,omitempty"`
	Sum     float64 `json:"sum,omitempty"`
	Count   int64   `json:"count,omitempty"`
}

// FamilySnapshot is one metric family: every series sharing a name,
// kind, and (for histograms) bucket schema.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Kind   string           `json:"kind"` // "counter", "gauge", "histogram"
	Bounds []float64        `json:"bounds,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// RegistrySnapshot is a consistent, self-describing export of a whole
// registry — the unit the fleet aggregator scrapes from every process.
// Role and Instance identify the process in a federated view; the
// registry itself does not know them, so SnapshotHandler fills them in.
type RegistrySnapshot struct {
	Version       int              `json:"version"`
	Role          string           `json:"role,omitempty"`
	Instance      string           `json:"instance,omitempty"`
	TakenUnixNano int64            `json:"taken_unix_nano"`
	Families      []FamilySnapshot `json:"families"`
}

// Validate checks the snapshot's version and internal consistency
// (histogram bucket slices matching their bounds).
func (s RegistrySnapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("telemetry: snapshot version %d, this build speaks %d", s.Version, SnapshotVersion)
	}
	for _, f := range s.Families {
		switch f.Kind {
		case "counter", "gauge":
			if len(f.Bounds) != 0 {
				return fmt.Errorf("telemetry: %s family %s carries bucket bounds", f.Kind, f.Name)
			}
		case "histogram":
			for _, se := range f.Series {
				if len(se.Buckets) != len(f.Bounds)+1 {
					return fmt.Errorf("telemetry: histogram %s series has %d buckets, bounds imply %d",
						f.Name, len(se.Buckets), len(f.Bounds)+1)
				}
			}
		default:
			return fmt.Errorf("telemetry: family %s has unknown kind %q", f.Name, f.Kind)
		}
	}
	return nil
}

// Snapshot exports every family and series in registration order.
// GaugeFunc series are evaluated at snapshot time, exactly as a
// Prometheus scrape would. Histogram Count is derived from the bucket
// counts read in one pass, so the snapshot's own invariants (sum of
// buckets == count) hold even while observations race the export.
func (r *Registry) Snapshot() RegistrySnapshot {
	snap := RegistrySnapshot{Version: SnapshotVersion, TakenUnixNano: time.Now().UnixNano()}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: string(f.kind)}
		if f.kind == histogramKind {
			fs.Bounds = append([]float64(nil), f.bounds...)
		}
		r.mu.Lock()
		ss := sortedSeries(f)
		r.mu.Unlock()
		for _, s := range ss {
			se := SeriesSnapshot{Labels: append([]Label(nil), s.labels...)}
			switch inst := s.inst.(type) {
			case *Counter:
				se.Value = float64(inst.Value())
			case *Gauge:
				se.Value = inst.Value()
			case func() float64:
				se.Value = inst()
			case *Histogram:
				se.Buckets = make([]int64, len(inst.counts))
				var total int64
				for i := range inst.counts {
					se.Buckets[i] = inst.counts[i].Load()
					total += se.Buckets[i]
				}
				se.Sum = inst.Sum()
				se.Count = total
			}
			fs.Series = append(fs.Series, se)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// SnapshotHandler serves the registry as a JSON RegistrySnapshot — the
// HTTP federation surface, mounted at /metrics/snapshot on every
// process that already serves /metrics, and the one way a process is
// scraped. role names the process's job ("trainer", "ps", "serve");
// instance may be left empty for the scraper to fill in with the
// address it dialed.
func SnapshotHandler(role, instance string, r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := r.Snapshot()
		snap.Role, snap.Instance = role, instance
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snap)
	})
}

// sortedSeries returns a family's series ordered by label signature.
// Callers must hold the registry mutex.
func sortedSeries(f *family) []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sig < out[j].sig })
	return out
}
