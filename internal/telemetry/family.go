package telemetry

import (
	"fmt"
	"sync"
)

// maxFamilyLabels bounds a family's label names, so a lookup keys its
// cache with a fixed-size array of values: no allocation, and no
// separator that a label value could contain.
const maxFamilyLabels = 2

type labelValues [maxFamilyLabels]string

// Family is a handle on one labelled metric family, and the one place
// label values are mapped to an instrument. With returns the series for
// a set of values, creating it through the registry on first use; later
// calls are a sync.Map load, cheap enough for a request path. Nothing is
// registered until the first With, so a family shows in the exposition
// from its first series on. A nil Family (from a nil Registry) returns
// nil instruments, which record nothing.
type Family[T Counter | Gauge | Histogram] struct {
	reg        *Registry
	name, help string
	kind       kind
	buckets    []float64
	labels     []string
	cache      sync.Map // labelValues -> *T
}

// CounterFamily returns a handle on the counter family name, labelled
// by labelNames.
func (r *Registry) CounterFamily(name, help string, labelNames ...string) *Family[Counter] {
	return newFamily[Counter](r, name, help, counterKind, nil, labelNames)
}

// GaugeFamily returns a handle on the gauge family name, labelled by
// labelNames.
func (r *Registry) GaugeFamily(name, help string, labelNames ...string) *Family[Gauge] {
	return newFamily[Gauge](r, name, help, gaugeKind, nil, labelNames)
}

// HistogramFamily returns a handle on the histogram family name with
// the given bucket bounds, labelled by labelNames.
func (r *Registry) HistogramFamily(name, help string, buckets []float64, labelNames ...string) *Family[Histogram] {
	return newFamily[Histogram](r, name, help, histogramKind, buckets, labelNames)
}

func newFamily[T Counter | Gauge | Histogram](r *Registry, name, help string, k kind, buckets []float64, labelNames []string) *Family[T] {
	if r == nil {
		return nil
	}
	if len(labelNames) == 0 || len(labelNames) > maxFamilyLabels {
		panic(fmt.Sprintf("telemetry: family %s needs 1 to %d label names, got %d", name, maxFamilyLabels, len(labelNames)))
	}
	return &Family[T]{reg: r, name: name, help: help, kind: k, buckets: buckets, labels: labelNames}
}

// With returns the instrument for one value per label name, in the
// order the names were given.
func (f *Family[T]) With(values ...string) *T {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: family %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var key labelValues
	copy(key[:], values)
	if inst, ok := f.cache.Load(key); ok {
		return inst.(*T)
	}
	// A miss takes the registry's validated get-or-create; racing misses
	// get the same series, so either Store is right.
	labels := make([]Label, len(values))
	for i, v := range values {
		labels[i] = L(f.labels[i], v)
	}
	inst := f.reg.getOrCreate(f.name, f.help, f.kind, f.buckets, labels).inst.(*T)
	f.cache.Store(key, inst)
	return inst
}
