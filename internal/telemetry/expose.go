package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// ContentType is the Prometheus text exposition content type served by
// Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every family in registration order: a HELP
// line, a TYPE line, then the series sorted by label signature.
// Histograms expand into cumulative _bucket series (ending with
// le="+Inf"), _sum, and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteFamilies(w, r.Snapshot().Families)
}

// WriteFamilies is the one Prometheus text writer: it renders family
// snapshots — a registry's own, a federated fleet's, or fleet totals —
// in the order given, skipping families without series, so the same
// scrapers and validators read all three.
func WriteFamilies(w io.Writer, fams []FamilySnapshot) error {
	bw := bufio.NewWriter(w)
	for _, fam := range fams {
		if len(fam.Series) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.Name, fam.Kind)
		for _, se := range fam.Series {
			sig := Signature(se.Labels)
			if fam.Kind != string(histogramKind) {
				writeSample(bw, fam.Name, "", sig, "", se.Value)
				continue
			}
			var cum int64
			for i, bound := range fam.Bounds {
				cum += se.Buckets[i]
				writeSample(bw, fam.Name, "_bucket", sig, `le="`+formatFloat(bound)+`"`, float64(cum))
			}
			// The +Inf bucket equals the total count by construction.
			writeSample(bw, fam.Name, "_bucket", sig, `le="+Inf"`, float64(se.Count))
			writeSample(bw, fam.Name, "_sum", sig, "", se.Sum)
			writeSample(bw, fam.Name, "_count", sig, "", float64(se.Count))
		}
	}
	return bw.Flush()
}

// writeSample emits one sample line, merging the series' label
// signature with an extra label (the histogram le bound).
func writeSample(w io.Writer, name, suffix, sig, extra string, v float64) {
	labels := sig
	if extra != "" {
		if labels != "" {
			labels += "," + extra
		} else {
			labels = extra
		}
	}
	if labels != "" {
		fmt.Fprintf(w, "%s%s{%s} %s\n", name, suffix, labels, formatFloat(v))
	} else {
		fmt.Fprintf(w, "%s%s %s\n", name, suffix, formatFloat(v))
	}
}

// formatFloat renders a sample value; integral values print without an
// exponent or trailing zeros, and +Inf uses the exposition spelling.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in the Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WritePrometheus(w)
	})
}

// RegisterGoRuntime adds scrape-time gauges for the Go runtime —
// goroutine count, heap allocated/reserved bytes, GC cycle count and
// cumulative pause time — so /metrics covers process health, not just
// application series. One ReadMemStats snapshot is shared by all the
// memstats-backed gauges per scrape.
func RegisterGoRuntime(r *Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("go_goroutines", "Number of goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	// memStat adapts one MemStats field; the snapshot is re-read at
	// most once per scrape interval (readMemStats caches briefly) so
	// four gauges do not mean four stop-the-world reads per scrape.
	memStat := func(pick func(*runtime.MemStats) float64) func() float64 {
		return func() float64 { return pick(readMemStats()) }
	}
	r.GaugeFunc("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.",
		memStat(func(m *runtime.MemStats) float64 { return float64(m.HeapAlloc) }))
	r.GaugeFunc("go_memstats_heap_sys_bytes", "Bytes of heap memory obtained from the OS.",
		memStat(func(m *runtime.MemStats) float64 { return float64(m.HeapSys) }))
	r.GaugeFunc("go_gc_cycles_total", "Completed GC cycles.",
		memStat(func(m *runtime.MemStats) float64 { return float64(m.NumGC) }))
	r.GaugeFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		memStat(func(m *runtime.MemStats) float64 { return float64(m.PauseTotalNs) / 1e9 }))
}

// readMemStats returns a MemStats snapshot at most ~200ms stale, so a
// scrape rendering several memstats gauges pays for one read.
func readMemStats() *runtime.MemStats {
	memMu.Lock()
	defer memMu.Unlock()
	if now := time.Now(); now.Sub(memAt) > 200*time.Millisecond {
		runtime.ReadMemStats(&memSnap)
		memAt = now
	}
	return &memSnap
}

var (
	memMu   sync.Mutex
	memSnap runtime.MemStats
	memAt   time.Time
)
