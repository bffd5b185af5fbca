package telemetry

import (
	"math"
	"sync"
)

// AnomalySink receives anomaly triggers. trace.FlightRecorder
// implements it, so telemetry can raise anomalies into the tracing
// flight recorder without either package importing the other; any
// other implementation (a pager, a log line) plugs in the same way.
type AnomalySink interface {
	// Trigger fires one anomaly of the given kind with descriptive
	// fields. Implementations decide their own dedup/once semantics.
	Trigger(kind string, fields map[string]any)
}

// A loss spikes when it lands more than spikeZ standard deviations
// above its domain's running mean, once the domain has spikeWarmup
// finite observations.
const (
	spikeZ      = 4
	spikeWarmup = 8
)

// LossWatch detects training-loss anomalies per domain: NaN or Inf
// losses fire immediately ("nan_loss"); finite losses feed a running
// mean/variance (Welford) and fire "loss_spike" when a loss lands
// more than spikeZ standard deviations above the domain's mean after
// a warmup period. Each anomaly is counted in
// mamdr_anomalies_total{kind} before it reaches the sink, so anomaly
// volume is a federated series SLOs can burn against — a flight
// recorder's once-per-kind dump latch hides the repetition an error
// budget must see. All methods are safe for concurrent use (workers
// observe from their own goroutines) and nil-receiver-safe.
type LossWatch struct {
	sink      AnomalySink
	anomalies *Family[Counter]

	mu    sync.Mutex
	stats map[string]*welford
}

type welford struct {
	n    int
	mean float64
	m2   float64
}

func (w *welford) observe(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// NewLossWatch watches for NaN/Inf losses and per-domain loss spikes,
// counting each in reg and then triggering sink; either may be nil.
func NewLossWatch(sink AnomalySink, reg *Registry) *LossWatch {
	return &LossWatch{
		sink: sink,
		anomalies: reg.CounterFamily("mamdr_anomalies_total",
			"Training anomalies observed, by kind (nan_loss, loss_spike, ...).", "kind"),
		stats: map[string]*welford{},
	}
}

// Observe feeds one finished pass's mean loss for a domain. extra
// fields (worker id, the pass span's trace/span ids) are forwarded to
// the sink alongside the watch's own domain/loss/z fields.
func (lw *LossWatch) Observe(domain string, loss float64, extra map[string]any) {
	if lw == nil {
		return
	}
	fields := map[string]any{"domain": domain, "loss": loss}
	for k, v := range extra {
		fields[k] = v
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		// JSON has no NaN/Inf literal; stringify so event sinks that
		// marshal the fields do not drop the record.
		fields["loss"] = "non-finite"
		lw.trigger("nan_loss", fields)
		return
	}

	lw.mu.Lock()
	st := lw.stats[domain]
	if st == nil {
		st = &welford{}
		lw.stats[domain] = st
	}
	spiked := false
	var z float64
	if st.n >= spikeWarmup {
		if sd := st.std(); sd > 0 {
			z = (loss - st.mean) / sd
			spiked = z > spikeZ
		}
	}
	st.observe(loss)
	lw.mu.Unlock()

	if spiked {
		fields["z"] = z
		lw.trigger("loss_spike", fields)
	}
}

// trigger counts one anomaly, then hands it to the sink.
func (lw *LossWatch) trigger(kind string, fields map[string]any) {
	lw.anomalies.With(kind).Inc()
	if lw.sink != nil {
		lw.sink.Trigger(kind, fields)
	}
}
