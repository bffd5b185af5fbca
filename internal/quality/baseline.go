package quality

// Baseline is the reference quality profile frozen into a model's
// checkpoint envelope at save time: per-domain score distributions,
// positive rates, and offline eval metrics computed on the validation
// split of the training data. Serving loads it next to the parameters
// and measures live-traffic drift (PSI) and quality deltas against it.
//
// The struct travels inside the gob checkpoint payload (see
// core/persist.go), so fields are append-only: never renumber, retype,
// or remove one once released.
type Baseline struct {
	// Bins is the histogram resolution of every ScoreHist below.
	Bins int
	// Domains holds one profile per domain, in dataset order.
	Domains []DomainBaseline
	// Fleet is the profile over all domains pooled together.
	Fleet DomainBaseline
}

// DomainBaseline is one domain's frozen quality profile.
type DomainBaseline struct {
	// Name is the domain's display name ("" for the fleet profile).
	Name string
	// ScoreHist is the normalized score distribution (proportions
	// summing to ~1) over Bins equal-width buckets on [0, 1].
	ScoreHist []float64
	// PosRate is the positive-label rate of the profiled split.
	PosRate float64
	// AUC and LogLoss are the offline eval metrics on that split.
	AUC     float64
	LogLoss float64
	// Count is the number of examples profiled.
	Count int
}

// Domain returns the profile for the named domain, or nil when the
// baseline has none (unknown domain, or nil receiver for pre-quality
// checkpoints).
func (b *Baseline) Domain(name string) *DomainBaseline {
	if b == nil {
		return nil
	}
	for i := range b.Domains {
		if b.Domains[i].Name == name {
			return &b.Domains[i]
		}
	}
	return nil
}

// BaselineBuilder accumulates per-domain (score, label) observations —
// typically a validation-split eval pass — and freezes them into a
// Baseline. Not safe for concurrent use.
type BaselineBuilder struct {
	order   []string
	domains map[string]*baselineAccum
	fleet   baselineAccum
}

type baselineAccum struct {
	hist    []int64
	scores  []float64
	labels  []float64
	pos     int64
	predSum float64
}

// NewBaselineBuilder starts a builder at the DefaultPSIBins histogram
// resolution.
func NewBaselineBuilder() *BaselineBuilder {
	return &BaselineBuilder{domains: map[string]*baselineAccum{}}
}

// Observe adds one domain's scored batch to the profile.
func (bb *BaselineBuilder) Observe(domain string, scores, labels []float64) {
	acc, ok := bb.domains[domain]
	if !ok {
		acc = &baselineAccum{hist: make([]int64, DefaultPSIBins)}
		bb.domains[domain] = acc
		bb.order = append(bb.order, domain)
	}
	if bb.fleet.hist == nil {
		bb.fleet.hist = make([]int64, DefaultPSIBins)
	}
	for i, s := range scores {
		q := Quantize(s)
		pos := i < len(labels) && labels[i] > 0.5
		for _, a := range []*baselineAccum{acc, &bb.fleet} {
			a.hist[binOf(q, DefaultPSIBins)]++
			a.scores = append(a.scores, q)
			a.predSum += q
			if pos {
				a.pos++
			}
		}
		acc.labels = append(acc.labels, labels[i])
		bb.fleet.labels = append(bb.fleet.labels, labels[i])
	}
}

// Build freezes the accumulated observations into a Baseline. Domains
// appear in first-observed order.
func (bb *BaselineBuilder) Build() *Baseline {
	out := &Baseline{Bins: DefaultPSIBins}
	for _, name := range bb.order {
		out.Domains = append(out.Domains, bb.domains[name].freeze(name))
	}
	out.Fleet = bb.fleet.freeze("")
	return out
}

func (a *baselineAccum) freeze(name string) DomainBaseline {
	d := DomainBaseline{Name: name, Count: len(a.scores)}
	d.ScoreHist = make([]float64, len(a.hist))
	if d.Count > 0 {
		for i, c := range a.hist {
			d.ScoreHist[i] = float64(c) / float64(d.Count)
		}
		d.PosRate = float64(a.pos) / float64(d.Count)
		d.AUC = aucOf(a.scores, a.labels)
		d.LogLoss = logLossOf(a.scores, a.labels)
	}
	return d
}

// aucOf / logLossOf are computed through a throwaway WindowEval so the
// baseline metrics share the streaming evaluators' exact conventions
// (quantization, tie handling, degenerate-class 0.5) without importing
// package metrics — keeping quality a leaf package.
func aucOf(scores, labels []float64) float64 {
	w := NewWindowEval(len(scores))
	for i, s := range scores {
		w.Add(s, labels[i] > 0.5)
	}
	return w.AUC()
}

func logLossOf(scores, labels []float64) float64 {
	w := NewWindowEval(len(scores))
	for i, s := range scores {
		w.Add(s, labels[i] > 0.5)
	}
	return w.LogLoss()
}
