package quality

import (
	"sync"

	"mamdr/internal/telemetry"
)

// The evidence rules of a quality check. The rollout canary gate holds
// its two arms to the same numbers.
const (
	// DefaultWindow is the labeled observation window per domain — the
	// horizon of the prequential AUC/logloss/calibration.
	DefaultWindow = 2048
	// MinLabeled gates label-dependent checks (AUC floor, calibration,
	// label PSI) until a domain has this many labeled observations
	// windowed: thin evidence must not fire alerts.
	MinLabeled = 200
	// MinScores gates score-PSI checks until this many scores are
	// windowed.
	MinScores = 500
	// PSICeiling is the per-domain PSI ceiling, the conventional "major
	// shift" threshold.
	PSICeiling = 0.25
)

const (
	// scoreWindow is the unlabeled score window per domain — the horizon
	// of score-distribution drift.
	scoreWindow = 8192
	// checkEvery is how many observations per domain pass between gauge
	// refreshes and breach checks, amortizing the O(bins) AUC read off
	// the request path.
	checkEvery = 64
	// aucFloor is the fleet windowed-AUC floor; below it
	// mamdr_quality_auc_floor_breaches_total increments.
	aucFloor = 0.55
	// calibLow and calibHigh bound the acceptable calibration ratio.
	calibLow, calibHigh = 0.5, 2.0
)

// Options configures a Tracker.
type Options struct {
	// Window is the labeled observation window per domain (0 means
	// DefaultWindow).
	Window int
	// Checks enables breach counting — the series the quality SLOs
	// burn against. Leave false for passive emitters (the trainer's
	// offline eval) so they can never fire fleet alerts.
	Checks bool
}

// Tracker owns the per-domain and fleet-wide streaming evaluators and
// publishes their readings as telemetry series — the one schema both
// the serving path (live traffic) and the trainer (offline eval)
// emit. All methods are safe for concurrent use and nil-receiver-safe.
type Tracker struct {
	opts Options
	reg  *telemetry.Registry

	mu       sync.Mutex
	baseline *Baseline
	domains  map[string]*domainState
	fleet    *domainState

	fleetBreaches *telemetry.Counter
	missingGauge  *telemetry.Gauge
	missingLoads  *telemetry.Counter

	feedbackJoins  *telemetry.Counter
	feedbackMisses *telemetry.Counter
	feedbackEvict  *telemetry.Counter
}

// domainState is one domain's evaluators plus its instrument handles.
// Its own mutex keeps hot-path contention per domain; the Tracker mutex
// only guards the domain map and baseline pointer.
type domainState struct {
	mu         sync.Mutex
	name       string
	eval       *WindowEval
	scores     *ScoreWindow
	base       *DomainBaseline
	sinceCheck int

	auc, aucBase, logloss, calib *telemetry.Gauge
	psiScore, psiLabel           *telemetry.Gauge
	labels                       *telemetry.Counter
	psiBreachScore               *telemetry.Counter
	psiBreachLabel               *telemetry.Counter
	calibBreach                  *telemetry.Counter
}

// NewTracker registers the quality metric families in reg (nil gets a
// private registry) and returns a ready tracker with no baseline —
// call SetBaseline once the checkpoint (or a fresh eval pass) provides
// one.
func NewTracker(reg *telemetry.Registry, opts Options) *Tracker {
	if reg == nil {
		reg = telemetry.New()
	}
	t := &Tracker{opts: opts, reg: reg, domains: map[string]*domainState{}}
	t.fleet = t.newDomainState("")
	t.fleetBreaches = reg.Counter("mamdr_quality_auc_floor_breaches_total",
		"Quality checks where the fleet windowed AUC was below the configured floor.")
	t.missingGauge = reg.Gauge("mamdr_quality_baseline_missing",
		"1 when no quality baseline is loaded (drift detection disabled), else 0.")
	t.missingLoads = reg.Counter("mamdr_quality_baseline_missing_total",
		"Model loads that carried no quality baseline (pre-quality checkpoints).")
	t.feedbackJoins = reg.Counter("mamdr_quality_feedback_joins_total",
		"Feedback requests successfully joined to a pending prediction.")
	t.feedbackMisses = reg.Counter("mamdr_quality_feedback_misses_total",
		"Feedback requests whose request ID was unknown, expired, or already consumed.")
	t.feedbackEvict = reg.Counter("mamdr_quality_feedback_evictions_total",
		"Pending predictions dropped from the feedback join buffer by TTL or capacity.")
	t.missingGauge.Set(1)
	return t
}

// newDomainState registers the per-domain series. The fleet state uses
// the mamdr_quality_fleet_* families (no domain label).
func (t *Tracker) newDomainState(name string) *domainState {
	d := &domainState{
		name:   name,
		eval:   NewWindowEval(t.opts.Window),
		scores: NewScoreWindow(scoreWindow),
	}
	if name == "" {
		d.auc = t.reg.Gauge("mamdr_quality_fleet_auc",
			"Windowed prequential AUC over all domains pooled (0.5 when a class is absent).")
		d.aucBase = t.reg.Gauge("mamdr_quality_fleet_auc_baseline",
			"Offline validation AUC frozen into the loaded checkpoint's quality baseline.")
		d.logloss = t.reg.Gauge("mamdr_quality_fleet_logloss",
			"Windowed mean binary cross entropy over all domains pooled.")
		d.calib = t.reg.Gauge("mamdr_quality_fleet_calibration_ratio",
			"Fleet predicted-CTR / observed-CTR over the labeled window (0 when undefined).")
		return d
	}
	lbl := telemetry.L("domain", name)
	d.auc = t.reg.Gauge("mamdr_quality_auc",
		"Windowed prequential AUC of the domain (0.5 when a class is absent).", lbl)
	d.aucBase = t.reg.Gauge("mamdr_quality_auc_baseline",
		"Offline validation AUC frozen into the loaded checkpoint's quality baseline.", lbl)
	d.logloss = t.reg.Gauge("mamdr_quality_logloss",
		"Windowed mean binary cross entropy of the domain.", lbl)
	d.calib = t.reg.Gauge("mamdr_quality_calibration_ratio",
		"Predicted-CTR / observed-CTR over the domain's labeled window (0 when undefined).", lbl)
	d.psiScore = t.reg.Gauge("mamdr_quality_psi",
		"Population Stability Index of the live distribution vs the checkpoint baseline (<0.1 stable, 0.1-0.25 moderate, >0.25 major shift; 0 without a baseline).",
		lbl, telemetry.L("kind", "score"))
	d.psiLabel = t.reg.Gauge("mamdr_quality_psi", "", lbl, telemetry.L("kind", "label"))
	d.labels = t.reg.Counter("mamdr_quality_labels_total",
		"Labeled observations consumed by the streaming evaluators.", lbl)
	d.psiBreachScore = t.reg.Counter("mamdr_quality_psi_breaches_total",
		"Quality checks where a domain's PSI exceeded the configured ceiling.",
		lbl, telemetry.L("kind", "score"))
	d.psiBreachLabel = t.reg.Counter("mamdr_quality_psi_breaches_total", "",
		lbl, telemetry.L("kind", "label"))
	d.calibBreach = t.reg.Counter("mamdr_quality_calibration_breaches_total",
		"Quality checks where a domain's calibration ratio left the configured band.", lbl)
	return d
}

// SetBaseline installs (or clears, with nil) the drift-detection
// baseline. A nil baseline — a pre-quality checkpoint — flips the
// mamdr_quality_baseline_missing gauge and counts the degraded load;
// PSI gauges then report 0 and drift checks are disabled.
func (t *Tracker) SetBaseline(b *Baseline) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.baseline = b
	if b == nil {
		t.missingGauge.Set(1)
		t.missingLoads.Inc()
	} else {
		t.missingGauge.Set(0)
		t.fleet.mu.Lock()
		t.fleet.base = &b.Fleet
		t.fleet.aucBase.Set(b.Fleet.AUC)
		t.fleet.mu.Unlock()
	}
	for name, d := range t.domains {
		base := b.Domain(name) // nil-safe on nil b
		d.mu.Lock()
		d.base = base
		if base != nil {
			d.aucBase.Set(base.AUC)
		} else {
			d.aucBase.Set(0)
		}
		d.mu.Unlock()
	}
}

// Baseline returns the installed baseline (nil when drift detection is
// disabled).
func (t *Tracker) Baseline() *Baseline {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.baseline
}

// domain returns (creating if needed) the named domain's state.
func (t *Tracker) domain(name string) *domainState {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.domains[name]
	if !ok {
		d = t.newDomainState(name)
		d.base = t.baseline.Domain(name)
		if d.base != nil {
			d.aucBase.Set(d.base.AUC)
		}
		t.domains[name] = d
	}
	return d
}

// ObserveScores records a served prediction batch's scores (no labels
// yet) for the domain — the dense drift signal.
func (t *Tracker) ObserveScores(domain string, scores []float64) {
	if t == nil || len(scores) == 0 {
		return
	}
	d := t.domain(domain)
	d.mu.Lock()
	for _, s := range scores {
		d.scores.Add(s)
	}
	d.advanceLocked(t, len(scores))
	d.mu.Unlock()

	f := t.fleet
	f.mu.Lock()
	for _, s := range scores {
		f.scores.Add(s)
	}
	f.advanceLocked(t, len(scores))
	f.mu.Unlock()
}

// ObserveLabeled records labeled (score, label) observations for the
// domain — joined feedback on the serving path, or eval-split
// predictions on the trainer path.
func (t *Tracker) ObserveLabeled(domain string, scores []float64, labels []bool) {
	if t == nil || len(scores) == 0 || len(scores) != len(labels) {
		return
	}
	d := t.domain(domain)
	d.mu.Lock()
	for i, s := range scores {
		d.eval.Add(s, labels[i])
	}
	d.labels.Add(int64(len(scores)))
	d.advanceLocked(t, len(scores))
	d.mu.Unlock()

	f := t.fleet
	f.mu.Lock()
	for i, s := range scores {
		f.eval.Add(s, labels[i])
	}
	f.advanceLocked(t, len(scores))
	f.mu.Unlock()
}

// FeedbackJoined counts a feedback request joined to its prediction.
func (t *Tracker) FeedbackJoined() {
	if t == nil {
		return
	}
	t.feedbackJoins.Inc()
}

// FeedbackMissed counts a feedback request that found no pending
// prediction.
func (t *Tracker) FeedbackMissed() {
	if t == nil {
		return
	}
	t.feedbackMisses.Inc()
}

// FeedbackEvicted counts n pending predictions the join buffer dropped
// unjoined — what JoinBuffer.Put returns.
func (t *Tracker) FeedbackEvicted(n int) {
	if t == nil || n == 0 {
		return
	}
	t.feedbackEvict.Add(int64(n))
}

// Flush re-derives every domain's gauges immediately, regardless of the
// checkEvery cadence — used by the trainer after its final eval pass so
// the emitted series reflect all observations.
func (t *Tracker) Flush() {
	if t == nil {
		return
	}
	t.mu.Lock()
	states := make([]*domainState, 0, len(t.domains)+1)
	for _, d := range t.domains {
		states = append(states, d)
	}
	states = append(states, t.fleet)
	t.mu.Unlock()
	for _, d := range states {
		d.mu.Lock()
		d.refreshLocked(t)
		d.mu.Unlock()
	}
}

// advanceLocked bumps the observation counter and refreshes gauges and
// breach checks once per checkEvery observations.
func (d *domainState) advanceLocked(t *Tracker, n int) {
	first := d.sinceCheck == 0 && d.eval.Count()+d.scores.Count() == n
	d.sinceCheck += n
	if first || d.sinceCheck >= checkEvery {
		d.sinceCheck = 0
		d.refreshLocked(t)
	}
}

// refreshLocked re-derives the domain's gauges from its windows and,
// when checks are enabled and the evidence thresholds are met, counts
// breaches. Gauges never hold NaN: undefined readings report 0 (and
// the AUC of a single-class window reports 0.5 by construction).
func (d *domainState) refreshLocked(t *Tracker) {
	checks := t.opts.Checks
	labeled := d.eval.Count()
	auc := d.eval.AUC()
	calib := d.eval.CalibrationRatio()
	d.auc.Set(auc)
	d.logloss.Set(d.eval.LogLoss())
	d.calib.Set(calib)

	var psiScore, psiLabel float64
	if d.base != nil {
		// Score PSI prefers the dense unlabeled window; with no served
		// scores yet (trainer path) it falls back to the labeled window.
		hist := d.scores.Histogram(len(d.base.ScoreHist))
		nScores := d.scores.Count()
		if nScores == 0 {
			hist = d.eval.Histogram(len(d.base.ScoreHist))
			nScores = labeled
		}
		psiScore = PSIProportions(d.base.ScoreHist, hist)
		psiLabel = LabelPSI(d.base.PosRate, d.eval.Positives(), int64(labeled))
		if d.psiScore != nil {
			d.psiScore.Set(psiScore)
			d.psiLabel.Set(psiLabel)
		}
		if checks && nScores >= MinScores && psiScore > PSICeiling {
			d.psiBreachScore.Inc()
		}
		if checks && labeled >= MinLabeled && psiLabel > PSICeiling {
			d.psiBreachLabel.Inc()
		}
	} else if d.psiScore != nil {
		d.psiScore.Set(0)
		d.psiLabel.Set(0)
	}

	if checks && labeled >= MinLabeled {
		if d.name == "" && auc < aucFloor {
			t.fleetBreaches.Inc()
		}
		if d.calibBreach != nil && calib > 0 && (calib < calibLow || calib > calibHigh) {
			d.calibBreach.Inc()
		}
	}
}
