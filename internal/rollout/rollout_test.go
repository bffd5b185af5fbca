package rollout

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeFleet records gate verdicts.
type fakeFleet struct {
	mu       sync.Mutex
	promoted []uint64
	rolledB  []uint64
}

func (f *fakeFleet) PromoteCanary(v uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.promoted = append(f.promoted, v)
	return nil
}

func (f *fakeFleet) RollbackCanary(v uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rolledB = append(f.rolledB, v)
	return nil
}

func (f *fakeFleet) counts() (int, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.promoted), len(f.rolledB)
}

// feedLabeled streams informative (score, label) pairs to one arm:
// flip=false is a good model (score tracks label), flip=true an
// anti-correlated one — the label-flipped poisoned snapshot.
func feedLabeled(c *Controller, version uint64, rng *rand.Rand, n int, flip bool) {
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		labels[i] = rng.Float64() < 0.5
		good := labels[i]
		if flip {
			good = !good
		}
		if good {
			scores[i] = 0.6 + 0.3*rng.Float64()
		} else {
			scores[i] = 0.1 + 0.3*rng.Float64()
		}
	}
	c.ObserveLabeled(version, scores, labels)
}

func gateConfig(decided *[]Decision) Config {
	return Config{
		MinLabeled: 100, MinScores: 100,
		MaxWait: time.Minute,
		OnDecision: func(d Decision) {
			*decided = append(*decided, d)
		},
	}
}

func TestCleanCanaryPromotes(t *testing.T) {
	var decided []Decision
	fleet := &fakeFleet{}
	c := New(fleet, nil, nil, gateConfig(&decided))
	if err := c.Begin(2, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Active(); !ok || v != 2 {
		t.Fatalf("Active = %d,%v after Begin", v, ok)
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		feedLabeled(c, 1, rng, 20, false)
		feedLabeled(c, 2, rng, 20, false)
	}
	p, r := fleet.counts()
	if p != 1 || r != 0 {
		t.Fatalf("promoted %d rolled back %d, want 1/0", p, r)
	}
	if len(decided) != 1 || decided[0].Action != "promote" || decided[0].Reason != "clean" {
		t.Fatalf("decisions = %+v", decided)
	}
	if _, ok := c.Active(); ok {
		t.Fatal("canary still active after promotion")
	}
	if !strings.Contains(decided[0].String(), "rollout_decision=promote") {
		t.Fatalf("decision line not greppable: %s", decided[0].String())
	}

	// Only one decision per evaluation: further observations are inert.
	feedLabeled(c, 2, rng, 200, false)
	if p, r := fleet.counts(); p != 1 || r != 0 {
		t.Fatalf("late observations re-decided: %d/%d", p, r)
	}
}

func TestQualityRegressionRollsBackOnAUC(t *testing.T) {
	var decided []Decision
	fleet := &fakeFleet{}
	c := New(fleet, nil, nil, gateConfig(&decided))
	if err := c.Begin(3, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		feedLabeled(c, 1, rng, 20, false)
		feedLabeled(c, 3, rng, 20, true) // poisoned: scores anti-correlate with labels
	}
	p, r := fleet.counts()
	if p != 0 || r != 1 {
		t.Fatalf("promoted %d rolled back %d, want 0/1", p, r)
	}
	d := decided[0]
	if d.Action != "rollback" || d.Reason != "auc" {
		t.Fatalf("decision = %+v", d)
	}
	if d.CanaryAUC >= d.IncumbentAUC {
		t.Fatalf("evidence inverted: canary %.3f vs incumbent %.3f", d.CanaryAUC, d.IncumbentAUC)
	}
	if fleet.rolledB[0] != 3 {
		t.Fatalf("rolled back version %d, want 3", fleet.rolledB[0])
	}
}

func TestScoreShiftRollsBackOnPSIWithoutLabels(t *testing.T) {
	var decided []Decision
	fleet := &fakeFleet{}
	c := New(fleet, nil, nil, gateConfig(&decided))
	if err := c.Begin(4, 1); err != nil {
		t.Fatal(err)
	}
	// Scores only — no label ever arrives, yet the shifted distribution
	// is enough to kill the canary.
	low := make([]float64, 50)
	high := make([]float64, 50)
	for i := range low {
		low[i], high[i] = 0.1+0.001*float64(i), 0.85+0.001*float64(i)
	}
	for i := 0; i < 3; i++ {
		c.ObserveScores(1, low)
		c.ObserveScores(4, high)
	}
	p, r := fleet.counts()
	if p != 0 || r != 1 {
		t.Fatalf("promoted %d rolled back %d, want 0/1", p, r)
	}
	d := decided[0]
	if d.Reason != "psi" || d.PSI <= 0.25 {
		t.Fatalf("decision = %+v", d)
	}
	if d.CanaryLabeled != 0 {
		t.Fatalf("PSI rollback claims %d labels", d.CanaryLabeled)
	}
}

func TestUnprovenCanaryRollsBackAtDeadline(t *testing.T) {
	var decided []Decision
	fleet := &fakeFleet{}
	now := time.Unix(1000, 0)
	cfg := gateConfig(&decided)
	cfg.Now = func() time.Time { return now }
	c := New(fleet, nil, nil, cfg)
	if err := c.Begin(5, 1); err != nil {
		t.Fatal(err)
	}
	if d := c.Tick(); d != nil {
		t.Fatalf("Tick decided early: %+v", d)
	}
	now = now.Add(cfg.MaxWait + time.Second)
	d := c.Tick()
	if d == nil || d.Action != "rollback" || d.Reason != "deadline" {
		t.Fatalf("deadline Tick = %+v", d)
	}
	if d.Elapsed <= cfg.MaxWait {
		t.Fatalf("elapsed %v not past deadline", d.Elapsed)
	}
	if p, r := fleet.counts(); p != 0 || r != 1 {
		t.Fatalf("promoted %d rolled back %d, want 0/1", p, r)
	}
}

func TestSingleCanaryInFlight(t *testing.T) {
	c := New(&fakeFleet{}, nil, nil, Config{})
	if err := c.Begin(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(3, 1); err == nil || !strings.Contains(err.Error(), "already under evaluation") {
		t.Fatalf("second Begin = %v", err)
	}
	if d := c.Cancel(); d == nil || d.Reason != "manual" {
		t.Fatalf("Cancel = %+v", d)
	}
	// After the manual rollback the slot frees up.
	if err := c.Begin(3, 1); err != nil {
		t.Fatalf("Begin after Cancel: %v", err)
	}
}

func TestForeignVersionObservationsAreDropped(t *testing.T) {
	var decided []Decision
	fleet := &fakeFleet{}
	c := New(fleet, nil, nil, gateConfig(&decided))
	if err := c.Begin(2, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	// Version 9 matches neither arm: a prediction scored by a snapshot
	// retired before this canary began. It must count toward nothing.
	for i := 0; i < 20; i++ {
		feedLabeled(c, 9, rng, 20, true)
	}
	st := c.Status()
	if st.CanaryLabeled != 0 || st.IncumbentLabeled != 0 {
		t.Fatalf("foreign labels leaked into arms: %+v", st)
	}
	if p, r := fleet.counts(); p != 0 || r != 0 {
		t.Fatalf("foreign observations decided: %d/%d", p, r)
	}

	// A nil controller (rollout disabled) absorbs everything quietly.
	var nilC *Controller
	nilC.ObserveScores(1, []float64{0.5})
	nilC.ObserveLabeled(1, []float64{0.5}, []bool{true})
	if d := nilC.Tick(); d != nil {
		t.Fatal("nil controller decided")
	}
	if st := nilC.Status(); st.Active {
		t.Fatal("nil controller active")
	}
}

func TestStatusReportsEvidence(t *testing.T) {
	var decided []Decision
	c := New(&fakeFleet{}, nil, nil, gateConfig(&decided))
	if err := c.Begin(7, 6); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	feedLabeled(c, 7, rng, 30, false)
	c.ObserveScores(6, []float64{0.2, 0.3, 0.4})
	st := c.Status()
	if !st.Active || st.Version != 7 || st.Incumbent != 6 {
		t.Fatalf("status = %+v", st)
	}
	if st.CanaryLabeled != 30 || st.IncumbentScores != 3 {
		t.Fatalf("evidence counts wrong: %+v", st)
	}
}
