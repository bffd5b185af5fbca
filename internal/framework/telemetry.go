package framework

import (
	"fmt"
	"sync/atomic"
	"time"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/paramvec"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// TrainMetrics bundles the training-side instruments: per-domain loss
// and gradient-norm gauges, DN inner/outer step timing histograms, and
// the cross-domain gradient cosine-similarity histogram that makes
// domain conflict — the phenomenon Domain Negotiation exists to fix —
// observable per epoch. It optionally mirrors each epoch into a JSONL
// event log so runs are replayable and plottable.
//
// All methods are nil-receiver-safe; a nil *TrainMetrics disables
// instrumentation entirely, so call sites never branch.
type TrainMetrics struct {
	// Anomalies, when non-nil, receives every finished pass's loss for
	// NaN/Inf and z-score spike detection; the sink behind it (usually
	// a tracing flight recorder) dumps the run-up when one fires. Set
	// it before training starts — the field is read concurrently by
	// worker goroutines but never written during training.
	Anomalies *telemetry.LossWatch

	names  []string
	events *telemetry.EventLog

	epochs    *telemetry.Counter
	loss      []*telemetry.Gauge
	gradNorm  []*telemetry.Gauge
	drLoss    []*telemetry.Gauge
	innerStep *telemetry.Histogram
	outerStep *telemetry.Histogram
	drPhase   *telemetry.Histogram
	gradCos   *telemetry.Histogram

	epoch atomic.Int64
}

// NewTrainMetrics registers the training instruments for ds's domains
// in reg (a nil registry gets a private one, useful when only the event
// log is wanted) and attaches the optional JSONL event log.
func NewTrainMetrics(reg *telemetry.Registry, ds *data.Dataset, events *telemetry.EventLog) *TrainMetrics {
	if reg == nil {
		reg = telemetry.New()
	}
	tm := &TrainMetrics{events: events}
	for _, dom := range ds.Domains {
		tm.names = append(tm.names, dom.Name)
	}
	tm.epochs = reg.Counter("mamdr_train_epochs_total",
		"Completed training epoch passes (one per worker per epoch in distributed mode).")
	tm.innerStep = reg.Histogram("mamdr_train_inner_step_seconds",
		"Duration of one DN inner-loop pass over a single domain.", telemetry.DefBuckets)
	tm.outerStep = reg.Histogram("mamdr_train_outer_step_seconds",
		"Duration of the DN outer update (Eq. 3).", telemetry.DefBuckets)
	tm.drPhase = reg.Histogram("mamdr_train_dr_phase_seconds",
		"Duration of one Domain Regularization phase: every target's Algorithm 2 update, across the phase's workers.", telemetry.DefBuckets)
	tm.gradCos = reg.Histogram("mamdr_train_grad_cosine",
		"Pairwise cosine similarity of per-domain parameter-update deltas within one epoch; mass below zero indicates domain conflict (paper Sec. IV-C).",
		telemetry.CosineBuckets())
	for _, name := range tm.names {
		lbl := telemetry.L("domain", name)
		tm.loss = append(tm.loss, reg.Gauge("mamdr_train_domain_loss",
			"Mean training BCE loss of the domain's latest inner-loop pass.", lbl))
		tm.gradNorm = append(tm.gradNorm, reg.Gauge("mamdr_train_domain_grad_norm",
			"L2 norm of the last mini-batch gradient after the domain's latest pass.", lbl))
		tm.drLoss = append(tm.drLoss, reg.Gauge("mamdr_train_dr_loss",
			"Mean target-domain loss of the latest Domain Regularization lookahead.", lbl))
	}
	return tm
}

// WireTrainMetrics is how a training run, single-process or
// distributed, instruments itself: nil when it has no registry, event
// log or tracer; otherwise NewTrainMetrics, with Anomalies watching
// every pass when the tracer keeps a flight recorder — each anomaly
// counted in reg's mamdr_anomalies_total{kind}, then handed to the
// recorder.
func WireTrainMetrics(reg *telemetry.Registry, ds *data.Dataset, events *telemetry.EventLog, tracer *trace.Tracer) *TrainMetrics {
	if reg == nil && events == nil && tracer == nil {
		return nil
	}
	tm := NewTrainMetrics(reg, ds, events)
	if f := tracer.Flight(); f != nil {
		tm.Anomalies = telemetry.NewLossWatch(f, reg)
	}
	return tm
}

// DomainName returns the instrumented name for a domain id (runtime-
// registered domains fall back to their id).
func (tm *TrainMetrics) DomainName(d int) string {
	if tm == nil {
		return ""
	}
	if d >= 0 && d < len(tm.names) {
		return tm.names[d]
	}
	return fmt.Sprintf("runtime-%d", d)
}

// ObserveDRPass records the target-domain loss of one DR lookahead. The
// workers of a DR phase call it concurrently and need no lock: each
// target has a gauge of its own, set atomically, and one worker runs it.
func (tm *TrainMetrics) ObserveDRPass(target int, loss float64) {
	if tm == nil || target < 0 || target >= len(tm.drLoss) {
		return
	}
	tm.drLoss[target].Set(loss)
}

// ObserveDRPhase records the wall time of one DR phase.
func (tm *TrainMetrics) ObserveDRPhase(seconds float64) {
	if tm == nil {
		return
	}
	tm.drPhase.Observe(seconds)
}

// EpochRecorder instruments one epoch's sequential pass over domains.
// It snapshots the parameter vector around each domain's inner loop, so
// the per-domain update deltas — the observable proxy for each domain's
// accumulated gradient direction — can be compared pairwise by cosine
// similarity without any extra forward or backward passes.
type EpochRecorder struct {
	tm     *TrainMetrics
	worker int
	params []*autograd.Tensor

	epochStart time.Time
	passStart  time.Time
	prev       paramvec.Vector

	domains []int
	losses  []float64
	norms   []float64
	deltas  []paramvec.Vector
}

// NewEpochRecorder starts recording an epoch over params. worker tags
// distributed workers in the event log; pass -1 for single-process
// training. A nil *TrainMetrics yields a nil recorder whose methods are
// all no-ops.
func (tm *TrainMetrics) NewEpochRecorder(params []*autograd.Tensor, worker int) *EpochRecorder {
	if tm == nil {
		return nil
	}
	return &EpochRecorder{tm: tm, worker: worker, params: params, epochStart: time.Now()}
}

// BeforePass marks the start of one domain's inner-loop pass.
func (r *EpochRecorder) BeforePass() {
	if r == nil {
		return
	}
	r.passStart = time.Now()
	r.prev = paramvec.Snapshot(r.params)
}

// AfterPassTC records the finished pass: loss and last-batch gradient
// norm gauges, inner-step timing, and the parameter delta the pass
// produced (for the conflict histogram). tc is the trace context of the
// span that produced the pass, so an anomaly raised by the loss watcher
// (NaN, z-score spike) can point straight at the offending span in the
// flight-recorder dump.
//
// The grad-norm is read over every Grad entry, so the pass must have run
// on a Stepper that started from ZeroGrad (its grad-buffer invariant):
// then the buffers hold the last mini-batch's gradient and nothing else.
func (r *EpochRecorder) AfterPassTC(domain int, loss float64, tc trace.TraceContext) {
	if r == nil {
		return
	}
	after := paramvec.Snapshot(r.params)
	norm := paramvec.Norm(paramvec.SnapshotGrads(r.params))
	r.tm.innerStep.Observe(time.Since(r.passStart).Seconds())
	if domain >= 0 && domain < len(r.tm.loss) {
		r.tm.loss[domain].Set(loss)
		r.tm.gradNorm[domain].Set(norm)
	}
	r.domains = append(r.domains, domain)
	r.losses = append(r.losses, loss)
	r.norms = append(r.norms, norm)
	r.deltas = append(r.deltas, paramvec.Sub(after, r.prev))
	r.prev = nil

	if r.tm.Anomalies != nil {
		fields := map[string]any{"domain": r.tm.DomainName(domain), "loss": loss}
		if r.worker >= 0 {
			fields["worker"] = r.worker
		}
		if tc.Valid() {
			fields["trace_id"], fields["span_id"] = tc.TraceID, tc.SpanID
		}
		r.tm.Anomalies.Observe(r.tm.DomainName(domain), loss, fields)
	}
}

// Finish closes the epoch: pairwise delta cosines feed the conflict
// histogram, the outer-step duration is recorded when non-negative, the
// epoch counter advances, and one JSONL event summarizes the epoch.
func (r *EpochRecorder) Finish(outerSeconds float64) {
	if r == nil {
		return
	}
	if outerSeconds >= 0 {
		r.tm.outerStep.Observe(outerSeconds)
	}
	var cosSum, cosMin float64
	cosMin = 1
	var pairs int
	for i := range r.deltas {
		for j := i + 1; j < len(r.deltas); j++ {
			c := paramvec.CosineSimilarity(r.deltas[i], r.deltas[j])
			r.tm.gradCos.Observe(c)
			cosSum += c
			if c < cosMin {
				cosMin = c
			}
			pairs++
		}
	}
	r.tm.epochs.Inc()
	epoch := r.tm.epoch.Add(1)

	if r.tm.events == nil {
		return
	}
	losses := map[string]float64{}
	norms := map[string]float64{}
	for i, d := range r.domains {
		losses[r.tm.DomainName(d)] = r.losses[i]
		norms[r.tm.DomainName(d)] = r.norms[i]
	}
	fields := map[string]any{
		"epoch":     epoch,
		"seconds":   time.Since(r.epochStart).Seconds(),
		"loss":      losses,
		"grad_norm": norms,
	}
	if r.worker >= 0 {
		fields["worker"] = r.worker
	}
	if outerSeconds >= 0 {
		fields["outer_seconds"] = outerSeconds
	}
	if pairs > 0 {
		fields["grad_cosine_mean"] = cosSum / float64(pairs)
		fields["grad_cosine_min"] = cosMin
	}
	r.tm.events.Log("epoch", fields)
}
