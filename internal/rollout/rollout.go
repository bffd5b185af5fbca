// Package rollout is the canary gate for live snapshot publication —
// the piece that makes rollout, not training, the safe moment in the
// paper's continuously-retrained deployment (§V). A newly published
// snapshot serves a configurable fraction of traffic as a canary while
// the incumbent keeps the rest; the Controller accumulates each arm's
// windowed prequential AUC/logloss and score distribution (the same
// O(1)-memory machinery internal/quality uses for drift detection) and,
// once minimum-evidence thresholds are met, either promotes the canary
// or rolls it back automatically:
//
//	rollback  when the canary's windowed AUC trails the incumbent's by
//	          more than aucMargin, its logloss exceeds the incumbent's
//	          by more than logLossMargin, or the PSI between the two
//	          arms' score distributions exceeds quality.PSICeiling (a
//	          poisoned model usually shows up in its score histogram
//	          long before enough labels arrive to move AUC);
//	promote   when the labeled-evidence threshold is met on both arms
//	          and no gate is breached;
//	rollback  (fail-safe) when MaxWait elapses without a verdict — a
//	          canary that cannot prove itself does not get promoted by
//	          timeout.
//
// Every decision emits telemetry (mamdr_rollout_decisions_total and the
// active-canary gauges), a trace span, and — on rollback — a
// flight-recorder dump, so a 3am auto-rollback leaves a full forensic
// trail. The Controller never touches the serving data path: the serve
// package routes traffic and reports observations; the Fleet interface
// is the only way back.
package rollout

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mamdr/internal/quality"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// Fleet is the serving side of the gate: the controller decides,
// the fleet executes. Implemented by serve.Server.
type Fleet interface {
	// PromoteCanary makes the canary snapshot the incumbent and retires
	// the previous incumbent.
	PromoteCanary(version uint64) error
	// RollbackCanary drops the canary snapshot; the incumbent — pinned
	// in memory the whole time — keeps serving untouched.
	RollbackCanary(version uint64) error
}

// How far the canary's AUC and logloss may fall behind the incumbent's
// before the gate rolls it back.
const (
	aucMargin     = 0.02
	logLossMargin = 0.05
)

// Config tunes the gate. Zero values take defaults.
type Config struct {
	// Fraction is the share of traffic the canary takes (default 0.2).
	Fraction float64
	// MinLabeled is the labeled-observation evidence each arm needs
	// before the AUC/logloss gates may issue a verdict (default
	// quality.MinLabeled).
	MinLabeled int
	// MinScores is the (unlabeled) score evidence each arm needs before
	// the PSI gate may fire (default quality.MinScores). Scores accrue at
	// serving rate, so PSI is usually the first gate with enough evidence.
	MinScores int
	// MaxWait is the fail-safe deadline: a canary still unproven after
	// this long is rolled back, never promoted by default (default 10m).
	// Enforced by Tick, which the owner must call periodically.
	MaxWait time.Duration
	// Now is the clock, injectable for tests (nil = time.Now).
	Now func() time.Time
	// OnDecision, when non-nil, runs after every decision has been
	// applied to the fleet — the hook smoke tests and CLIs print from.
	OnDecision func(Decision)
}

func (c Config) withDefaults() Config {
	if c.Fraction <= 0 || c.Fraction > 1 {
		c.Fraction = 0.2
	}
	if c.MinLabeled <= 0 {
		c.MinLabeled = quality.MinLabeled
	}
	if c.MinScores <= 0 {
		c.MinScores = quality.MinScores
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 10 * time.Minute
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Decision records one verdict, promote or rollback, with the evidence
// it was issued on.
type Decision struct {
	Version   uint64        `json:"version"`
	Incumbent uint64        `json:"incumbent"`
	Action    string        `json:"action"` // "promote" or "rollback"
	Reason    string        `json:"reason"` // "clean", "auc", "logloss", "psi", "deadline", "manual"
	Detail    string        `json:"detail"`
	Elapsed   time.Duration `json:"elapsed_ns"`

	CanaryAUC        float64 `json:"canary_auc"`
	IncumbentAUC     float64 `json:"incumbent_auc"`
	CanaryLogLoss    float64 `json:"canary_logloss"`
	IncumbentLogLoss float64 `json:"incumbent_logloss"`
	PSI              float64 `json:"psi"`
	CanaryLabeled    int     `json:"canary_labeled"`
	IncumbentLabeled int     `json:"incumbent_labeled"`

	// FleetErr is the fleet call's failure, if any — the decision was
	// still recorded, but the swap did not happen.
	FleetErr string `json:"fleet_err,omitempty"`
}

// String is the greppable one-line form smoke tests assert on.
func (d Decision) String() string {
	return fmt.Sprintf("rollout_decision=%s version=%d reason=%s canary_auc=%.4f incumbent_auc=%.4f psi=%.4f labeled=%d/%d elapsed=%s",
		d.Action, d.Version, d.Reason, d.CanaryAUC, d.IncumbentAUC, d.PSI,
		d.CanaryLabeled, d.IncumbentLabeled, d.Elapsed.Round(time.Millisecond))
}

// arm is one side's evaluators; both windows hold the last
// quality.DefaultWindow observations.
type arm struct {
	eval   *quality.WindowEval
	scores *quality.ScoreWindow
}

func newArm() *arm {
	return &arm{
		eval:   quality.NewWindowEval(quality.DefaultWindow),
		scores: quality.NewScoreWindow(quality.DefaultWindow),
	}
}

// evaluation is one in-flight canary.
type evaluation struct {
	version   uint64
	incumbent uint64
	started   time.Time
	canary    *arm
	incArm    *arm
}

// psi is the PSI between the two arms' score distributions.
func (e *evaluation) psi() float64 {
	return quality.PSI(e.incArm.scores.Histogram(quality.DefaultPSIBins), e.canary.scores.Histogram(quality.DefaultPSIBins))
}

// Status is the GET /admin/rollout view.
type Status struct {
	Active           bool      `json:"active"`
	Version          uint64    `json:"version,omitempty"`
	Incumbent        uint64    `json:"incumbent"`
	Fraction         float64   `json:"fraction,omitempty"`
	ElapsedMS        int64     `json:"elapsed_ms,omitempty"`
	CanaryLabeled    int       `json:"canary_labeled,omitempty"`
	IncumbentLabeled int       `json:"incumbent_labeled,omitempty"`
	CanaryScores     int       `json:"canary_scores,omitempty"`
	IncumbentScores  int       `json:"incumbent_scores,omitempty"`
	CanaryAUC        float64   `json:"canary_auc,omitempty"`
	IncumbentAUC     float64   `json:"incumbent_auc,omitempty"`
	PSI              float64   `json:"psi,omitempty"`
	LastDecision     *Decision `json:"last_decision,omitempty"`
}

// Controller owns at most one canary evaluation at a time. All methods
// are safe for concurrent use; observation methods are nil-receiver
// safe so a serve.Server without a rollout gate costs nothing.
type Controller struct {
	cfg    Config
	fleet  Fleet
	tracer *trace.Tracer

	versionGauge *telemetry.Gauge
	unattributed *telemetry.Counter
	reg          *telemetry.Registry

	mu   sync.Mutex
	cur  *evaluation
	last *Decision
}

// New builds a controller deciding for fleet. reg may be nil (a private
// registry is used); tracer may be nil (spans and flight dumps are
// dropped).
func New(fleet Fleet, reg *telemetry.Registry, tracer *trace.Tracer, cfg Config) *Controller {
	if reg == nil {
		reg = telemetry.New()
	}
	c := &Controller{cfg: cfg.withDefaults(), fleet: fleet, tracer: tracer, reg: reg}
	c.versionGauge = reg.Gauge("mamdr_rollout_canary_version",
		"Version of the canary snapshot under evaluation (0 when none).")
	c.unattributed = reg.Counter("mamdr_rollout_unattributed_total",
		"Labeled observations whose snapshot version matched neither rollout arm (dropped, not misattributed).")
	return c
}

// Fraction returns the canary traffic share the gate was configured
// with.
func (c *Controller) Fraction() float64 {
	if c == nil {
		return 0
	}
	return c.cfg.Fraction
}

// Begin starts evaluating version as a canary against the given
// incumbent. At most one canary is in flight; a second Begin fails.
func (c *Controller) Begin(version, incumbent uint64) error {
	if c == nil {
		return fmt.Errorf("rollout: no controller configured")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil {
		return fmt.Errorf("rollout: canary v%d already under evaluation", c.cur.version)
	}
	c.cur = &evaluation{
		version:   version,
		incumbent: incumbent,
		started:   c.cfg.Now(),
		canary:    newArm(),
		incArm:    newArm(),
	}
	c.versionGauge.Set(float64(version))
	return nil
}

// Active reports the in-flight canary version, if any.
func (c *Controller) Active() (uint64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return 0, false
	}
	return c.cur.version, true
}

// armOfLocked routes an observation to the arm owning version, nil when
// no evaluation is in flight or the version matches neither arm (a
// prediction served before the canary began, or by an already-retired
// snapshot — feeding it anywhere would pollute the comparison).
func (c *Controller) armOfLocked(version uint64) *arm {
	if c.cur == nil {
		return nil
	}
	switch version {
	case c.cur.version:
		return c.cur.canary
	case c.cur.incumbent:
		return c.cur.incArm
	}
	return nil
}

// ObserveScores feeds one arm's served scores (no labels yet) — the
// dense signal the PSI gate runs on. The decision check runs inline:
// score evidence alone can roll a distribution-shifted canary back.
func (c *Controller) ObserveScores(version uint64, scores []float64) {
	if c == nil || len(scores) == 0 {
		return
	}
	c.mu.Lock()
	a := c.armOfLocked(version)
	if a == nil {
		c.mu.Unlock()
		return
	}
	for _, s := range scores {
		a.scores.Add(s)
	}
	d := c.maybeDecideLocked(false)
	c.mu.Unlock()
	c.apply(d)
}

// ObserveLabeled feeds one arm's joined feedback. Labeled evidence
// drives the AUC and logloss gates; each call also re-checks the gate.
func (c *Controller) ObserveLabeled(version uint64, scores []float64, labels []bool) {
	if c == nil || len(scores) == 0 || len(scores) != len(labels) {
		return
	}
	c.mu.Lock()
	a := c.armOfLocked(version)
	if a == nil {
		if c.cur != nil {
			c.unattributed.Add(int64(len(scores)))
		}
		c.mu.Unlock()
		return
	}
	for i, s := range scores {
		a.eval.Add(s, labels[i])
	}
	d := c.maybeDecideLocked(false)
	c.mu.Unlock()
	c.apply(d)
}

// Tick enforces the MaxWait fail-safe; the owner calls it periodically
// (and tests call it directly). It returns the decision applied, if
// any.
func (c *Controller) Tick() *Decision {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	d := c.maybeDecideLocked(true)
	c.mu.Unlock()
	c.apply(d)
	return d
}

// Cancel rolls back the in-flight canary unconditionally — the manual
// override behind POST /admin/rollback.
func (c *Controller) Cancel() *Decision {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	if c.cur == nil {
		c.mu.Unlock()
		return nil
	}
	d := c.decisionLocked("rollback", "manual", "operator rollback")
	c.mu.Unlock()
	c.apply(d)
	return d
}

// maybeDecideLocked evaluates the gates against the current evidence
// and, when one fires, consumes the evaluation and returns the decision
// for the caller to apply outside the lock. fromTick additionally arms
// the deadline gate.
func (c *Controller) maybeDecideLocked(fromTick bool) *Decision {
	e := c.cur
	if e == nil {
		return nil
	}

	// PSI gate: pure score evidence, usually available first.
	if e.canary.scores.Count() >= c.cfg.MinScores && e.incArm.scores.Count() >= c.cfg.MinScores {
		if psi := e.psi(); psi > quality.PSICeiling {
			return c.decisionLocked("rollback", "psi",
				fmt.Sprintf("canary-vs-incumbent score PSI %.4f > %.4f", psi, quality.PSICeiling))
		}
	}

	// AUC/logloss gates: need labeled evidence on both arms.
	if e.canary.eval.Count() >= c.cfg.MinLabeled && e.incArm.eval.Count() >= c.cfg.MinLabeled {
		cAUC, iAUC := e.canary.eval.AUC(), e.incArm.eval.AUC()
		cLL, iLL := e.canary.eval.LogLoss(), e.incArm.eval.LogLoss()
		switch {
		case cAUC < iAUC-aucMargin:
			return c.decisionLocked("rollback", "auc",
				fmt.Sprintf("canary AUC %.4f < incumbent %.4f − %.4f", cAUC, iAUC, aucMargin))
		case cLL > iLL+logLossMargin:
			return c.decisionLocked("rollback", "logloss",
				fmt.Sprintf("canary logloss %.4f > incumbent %.4f + %.4f", cLL, iLL, logLossMargin))
		default:
			return c.decisionLocked("promote", "clean", "evidence met, no gate breached")
		}
	}

	// Fail-safe deadline: an unproven canary is rolled back, never
	// promoted by timeout.
	if fromTick && c.cfg.Now().Sub(e.started) > c.cfg.MaxWait {
		return c.decisionLocked("rollback", "deadline",
			fmt.Sprintf("no verdict after %s (labeled %d/%d, need %d)",
				c.cfg.MaxWait, e.canary.eval.Count(), e.incArm.eval.Count(), c.cfg.MinLabeled))
	}
	return nil
}

// decisionLocked snapshots the evidence into a Decision and consumes
// the evaluation. The caller applies the decision after unlocking.
func (c *Controller) decisionLocked(action, reason, detail string) *Decision {
	e := c.cur
	d := &Decision{
		Version:          e.version,
		Incumbent:        e.incumbent,
		Action:           action,
		Reason:           reason,
		Detail:           detail,
		Elapsed:          c.cfg.Now().Sub(e.started),
		CanaryAUC:        e.canary.eval.AUC(),
		IncumbentAUC:     e.incArm.eval.AUC(),
		CanaryLogLoss:    e.canary.eval.LogLoss(),
		IncumbentLogLoss: e.incArm.eval.LogLoss(),
		PSI:              e.psi(),
		CanaryLabeled:    e.canary.eval.Count(),
		IncumbentLabeled: e.incArm.eval.Count(),
	}
	c.cur = nil
	c.last = d
	c.versionGauge.Set(0)
	return d
}

// apply executes a decision against the fleet and emits its telemetry,
// span, and (on rollback) flight dump. Runs without the controller
// lock: the fleet call takes the server's own mutex.
func (c *Controller) apply(d *Decision) {
	if d == nil {
		return
	}
	var err error
	if d.Action == "promote" {
		err = c.fleet.PromoteCanary(d.Version)
	} else {
		err = c.fleet.RollbackCanary(d.Version)
	}
	if err != nil {
		d.FleetErr = err.Error()
	}

	c.reg.Counter("mamdr_rollout_decisions_total",
		"Canary gate decisions, by action and reason.",
		telemetry.L("decision", d.Action), telemetry.L("reason", d.Reason)).Inc()

	_, sp := trace.Start(c.tracer.Context(context.Background()), "rollout.decision",
		trace.A("action", d.Action), trace.A("reason", d.Reason),
		trace.A("version", d.Version), trace.A("incumbent", d.Incumbent))
	sp.EndWith(trace.A("canary_auc", d.CanaryAUC), trace.A("incumbent_auc", d.IncumbentAUC),
		trace.A("psi", d.PSI))

	if d.Action == "rollback" {
		c.tracer.Flight().Trigger("rollout_rollback", map[string]any{
			"version":       d.Version,
			"incumbent":     d.Incumbent,
			"reason":        d.Reason,
			"detail":        d.Detail,
			"canary_auc":    d.CanaryAUC,
			"incumbent_auc": d.IncumbentAUC,
			"psi":           d.PSI,
			"elapsed_ms":    d.Elapsed.Milliseconds(),
		})
	}
	if c.cfg.OnDecision != nil {
		c.cfg.OnDecision(*d)
	}
}

// Status reports the current evaluation (and the last decision) for
// GET /admin/rollout.
func (c *Controller) Status() Status {
	if c == nil {
		return Status{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{LastDecision: c.last}
	if c.cur == nil {
		return st
	}
	e := c.cur
	st.Active = true
	st.Version = e.version
	st.Incumbent = e.incumbent
	st.Fraction = c.cfg.Fraction
	st.ElapsedMS = c.cfg.Now().Sub(e.started).Milliseconds()
	st.CanaryLabeled = e.canary.eval.Count()
	st.IncumbentLabeled = e.incArm.eval.Count()
	st.CanaryScores = e.canary.scores.Count()
	st.IncumbentScores = e.incArm.scores.Count()
	st.CanaryAUC = e.canary.eval.AUC()
	st.IncumbentAUC = e.incArm.eval.AUC()
	st.PSI = e.psi()
	return st
}
