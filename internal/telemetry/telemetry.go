// Package telemetry is a dependency-free, low-overhead instrument
// library: atomic counters, gauges, and fixed-bucket histograms
// organized into a Registry that renders the Prometheus text exposition
// format (text/plain; version=0.0.4).
//
// Instruments are safe for concurrent use and cost one or two atomic
// operations per update, so they can sit on training and serving hot
// paths. Every instrument method is also nil-receiver-safe: call sites
// do not need to branch on whether telemetry is enabled — a nil
// instrument records nothing.
//
// The library deliberately supports only constant label sets fixed at
// registration time (one time series per Counter/Gauge/Histogram
// value). Get-or-create semantics make per-domain or per-tensor series
// cheap to wire: asking the registry for an existing (name, labels)
// pair returns the same instrument.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a time series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// kind discriminates metric families for TYPE lines and API checks.
type kind string

const (
	counterKind   kind = "counter"
	gaugeKind     kind = "gauge"
	histogramKind kind = "histogram"
)

// --- instruments ---

// Counter is a monotonically increasing integer. The zero value is
// unusable; obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n. Negative increments are ignored —
// counters never decrease.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases the gauge by d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	addFloatBits(&g.bits, d)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket bounds are
// inclusive upper limits in strictly increasing order; an implicit +Inf
// bucket catches everything above the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	addFloatBits(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// addFloatBits atomically adds d to a float64 stored as uint64 bits.
func addFloatBits(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// --- bucket helpers ---

// DefBuckets are latency buckets in seconds, spanning sub-millisecond
// forward passes to multi-second replica-pool stalls.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// LinearBuckets returns count bounds starting at start, spaced width
// apart.
func LinearBuckets(start, width float64, count int) []float64 {
	if count < 1 {
		panic("telemetry: LinearBuckets needs count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count bounds starting at start, each
// factor times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if count < 1 || start <= 0 || factor <= 1 {
		panic("telemetry: ExponentialBuckets needs count >= 1, start > 0, factor > 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// CosineBuckets covers [-1, 1] in 0.1 steps — the natural range of the
// gradient-conflict histogram.
func CosineBuckets() []float64 { return LinearBuckets(-0.9, 0.1, 19) }

// --- registry ---

// series is one labeled time series within a family.
type series struct {
	labels []Label // sorted by name
	sig    string
	inst   any // *Counter, *Gauge, *Histogram, or func() float64
}

// family is all series sharing one metric name.
type family struct {
	name, help string
	kind       kind
	bounds     []float64 // histograms only
	series     map[string]*series
}

// Registry owns metric families and renders them. The zero value is not
// usable; call New.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order
	byName   map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Counter returns the counter for (name, labels), creating the family
// and series on first use. A nil registry returns a nil (no-op)
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, help, counterKind, nil, labels)
	return s.inst.(*Counter)
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, help, gaugeKind, nil, labels)
	return s.inst.(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time (e.g. runtime statistics). Re-registering the same series
// replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.getOrCreate(name, help, gaugeKind, nil, labels)
	r.mu.Lock()
	s.inst = fn
	r.mu.Unlock()
}

// Histogram returns the histogram for (name, labels) with the given
// bucket bounds (strictly increasing upper limits; a +Inf bucket is
// implicit). Pass nil buckets to reuse the family's bounds once
// established; passing different non-nil bounds for the same family
// panics.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, help, histogramKind, buckets, labels)
	return s.inst.(*Histogram)
}

func (r *Registry) getOrCreate(name, help string, k kind, buckets []float64, labels []Label) *series {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for i, l := range sorted {
		if !labelRe.MatchString(l.Name) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %s", l.Name, name))
		}
		if l.Name == "le" {
			panic(fmt.Sprintf("telemetry: label %q on %s is reserved for histogram buckets", l.Name, name))
		}
		if i > 0 && sorted[i-1].Name == l.Name {
			panic(fmt.Sprintf("telemetry: duplicate label %q on %s", l.Name, name))
		}
	}
	sig := Signature(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		if k == histogramKind {
			if len(buckets) == 0 {
				panic(fmt.Sprintf("telemetry: histogram %s registered without buckets", name))
			}
			for i := 1; i < len(buckets); i++ {
				if buckets[i] <= buckets[i-1] {
					panic(fmt.Sprintf("telemetry: histogram %s buckets not strictly increasing: %v", name, buckets))
				}
			}
		}
		f = &family{
			name: name, help: help, kind: k,
			bounds: append([]float64(nil), buckets...),
			series: map[string]*series{},
		}
		r.families = append(r.families, f)
		r.byName[name] = f
	} else {
		if f.kind != k {
			panic(fmt.Sprintf("telemetry: %s already registered as %s, requested %s", name, f.kind, k))
		}
		if k == histogramKind && buckets != nil && !equalBounds(buckets, f.bounds) {
			panic(fmt.Sprintf("telemetry: histogram %s re-registered with different buckets", name))
		}
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: sorted, sig: sig}
		switch k {
		case counterKind:
			s.inst = &Counter{}
		case gaugeKind:
			s.inst = &Gauge{}
		case histogramKind:
			s.inst = newHistogram(f.bounds)
		}
		f.series[sig] = s
	}
	return s
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Signature is the canonical label rendering — pairs sorted by label
// name — doubling as the series key (within a registry and across
// merged ones) and as the exposition label block (without braces).
func Signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	byName := func(i, j int) bool { return labels[i].Name < labels[j].Name }
	if !sort.SliceIsSorted(labels, byName) {
		labels = append([]Label(nil), labels...)
		sort.Slice(labels, byName)
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes backslash, double quote, and newline as the
// exposition format requires.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline for HELP lines.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
