package quality

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mamdr/internal/telemetry"
)

func TestPSI(t *testing.T) {
	same := []int64{100, 200, 300, 200, 100}
	if psi := PSI(same, same); psi > 1e-9 {
		t.Fatalf("PSI of identical distributions = %v, want ~0", psi)
	}
	shifted := []int64{300, 300, 200, 80, 20}
	if psi := PSI(same, shifted); psi < 0.25 {
		t.Fatalf("PSI of shifted distribution = %v, want > 0.25", psi)
	}
	if psi := PSI(same, []int64{0, 0, 0, 0, 0}); psi != 0 {
		t.Fatalf("PSI vs empty actual = %v, want 0", psi)
	}
	if psi := PSI(same, []int64{1, 2}); psi != 0 {
		t.Fatalf("PSI with mismatched lengths = %v, want 0", psi)
	}
	// Scale invariance: 10x the counts, same proportions.
	scaled := []int64{1000, 2000, 3000, 2000, 1000}
	if psi := PSI(same, scaled); psi > 1e-9 {
		t.Fatalf("PSI of scaled distribution = %v, want ~0", psi)
	}
	// Symmetric in its construction: PSI(a,b) == PSI(b,a).
	if a, b := PSI(same, shifted), PSI(shifted, same); math.Abs(a-b) > 1e-12 {
		t.Fatalf("PSI not symmetric: %v vs %v", a, b)
	}
}

func TestLabelPSI(t *testing.T) {
	if psi := LabelPSI(0.2, 20, 100); psi > 1e-9 {
		t.Fatalf("matched label rate PSI = %v, want ~0", psi)
	}
	if psi := LabelPSI(0.2, 80, 100); psi < 0.25 {
		t.Fatalf("inverted label rate PSI = %v, want > 0.25", psi)
	}
	if psi := LabelPSI(0.2, 0, 0); psi != 0 {
		t.Fatalf("empty stream label PSI = %v, want 0", psi)
	}
}

func TestBaselineBuilder(t *testing.T) {
	bb := NewBaselineBuilder()
	bb.Observe("books", []float64{0.9, 0.8, 0.1, 0.2}, []float64{1, 1, 0, 0})
	bb.Observe("music", []float64{0.5, 0.5}, []float64{1, 0})
	b := bb.Build()
	if b.Bins != DefaultPSIBins {
		t.Fatalf("Bins = %d, want %d", b.Bins, DefaultPSIBins)
	}
	books := b.Domain("books")
	if books == nil || books.Count != 4 {
		t.Fatalf("books profile missing or wrong count: %+v", books)
	}
	if books.AUC != 1 {
		t.Fatalf("books AUC = %v, want 1 (perfectly separated)", books.AUC)
	}
	if books.PosRate != 0.5 {
		t.Fatalf("books PosRate = %v, want 0.5", books.PosRate)
	}
	var sum float64
	for _, p := range books.ScoreHist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("books ScoreHist sums to %v, want 1", sum)
	}
	music := b.Domain("music")
	if music == nil || music.AUC != 0.5 {
		t.Fatalf("music (all-tied) AUC = %+v, want 0.5", music)
	}
	if b.Fleet.Count != 6 {
		t.Fatalf("fleet count = %d, want 6", b.Fleet.Count)
	}
	if b.Domain("missing") != nil {
		t.Fatal("unknown domain should return nil")
	}
	var nilB *Baseline
	if nilB.Domain("books") != nil {
		t.Fatal("nil baseline should return nil profile")
	}
}

func TestJoinBuffer(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	j := NewJoinBuffer(time.Minute, clock)

	j.Put("a", PendingPrediction{Domain: "d1", Scores: []float32{0.5}})
	if p, ok := j.Take("a"); !ok || p.Domain != "d1" {
		t.Fatalf("Take(a) = %+v, %v", p, ok)
	}
	if _, ok := j.Take("a"); ok {
		t.Fatal("second Take(a) should miss")
	}

	// Capacity eviction: oldest goes first.
	for i := 1; i <= joinCapacity+1; i++ {
		id := strconv.Itoa(i)
		j.Put(id, PendingPrediction{Domain: id})
	}
	if _, ok := j.Take("1"); ok {
		t.Fatal("oldest entry should have been evicted at capacity")
	}
	if _, ok := j.Take(strconv.Itoa(joinCapacity + 1)); !ok {
		t.Fatal("newest entry should survive capacity eviction")
	}
	if j.Evictions() == 0 {
		t.Fatal("capacity eviction not counted")
	}

	// TTL expiry (this also expires every entry still parked).
	j.Put("ttl", PendingPrediction{Domain: "d"})
	now = now.Add(2 * time.Minute)
	if _, ok := j.Take("ttl"); ok {
		t.Fatal("expired entry should miss")
	}

	// Duplicate Put replaces and refreshes.
	j.Put("dup", PendingPrediction{Domain: "old"})
	j.Put("dup", PendingPrediction{Domain: "new"})
	if p, ok := j.Take("dup"); !ok || p.Domain != "new" {
		t.Fatalf("duplicate Put not replaced: %+v %v", p, ok)
	}
	if j.Len() != 0 {
		t.Fatalf("Len = %d, want 0", j.Len())
	}
}

// fullJoinBuffer returns a buffer holding joinCapacity predictions
// under the first joinCapacity of 4×joinCapacity distinct IDs.
func fullJoinBuffer() (*JoinBuffer, []string) {
	ids := make([]string, 4*joinCapacity)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	j := NewJoinBuffer(time.Hour, nil)
	for _, id := range ids[:joinCapacity] {
		j.Put(id, PendingPrediction{})
	}
	return j, ids
}

// churnAtCapacity is serving at a 4:1 predict:feedback mix on a full
// buffer: op i Puts the next ID, and every 4th op also Takes the ID put
// just before, leaving a tombstone inside the window. It reports how
// many Takes joined.
func churnAtCapacity(j *JoinBuffer, ids []string, ops int) (joined int) {
	for i := 0; i < ops; i++ {
		k := joinCapacity + i
		j.Put(ids[k%len(ids)], PendingPrediction{})
		if i%4 == 3 {
			if _, ok := j.Take(ids[(k-1)%len(ids)]); ok {
				joined++
			}
		}
	}
	return joined
}

// TestJoinBufferAtCapacityStaysAmortized: a full buffer with interior
// tombstones compacts at most once per joinCapacity Puts, so the slots
// it copies stay within twice the Puts made.
func TestJoinBufferAtCapacityStaysAmortized(t *testing.T) {
	j, ids := fullJoinBuffer()
	copied := j.copied
	const puts = 4 * joinCapacity
	if joined := churnAtCapacity(j, ids, puts); joined != puts/4 {
		t.Fatalf("%d of %d Takes joined, want all", joined, puts/4)
	}
	if got := j.copied - copied; got > 2*puts {
		t.Fatalf("compaction copied %d slots over %d Puts, want ≤ %d", got, puts, 2*puts)
	}
	if len(j.slots) > 2*joinCapacity || j.Len() > joinCapacity {
		t.Fatalf("ring %d slots holding %d, want ≤ %d and ≤ %d", len(j.slots), j.Len(), 2*joinCapacity, joinCapacity)
	}
}

// TestJoinBufferConcurrent: Puts and Takes from several goroutines, as
// concurrent /predict and /feedback handlers make them, through ring
// growth and compaction. Every Take of an ID its goroutine parked
// joins, and the rest stay parked.
func TestJoinBufferConcurrent(t *testing.T) {
	j := NewJoinBuffer(time.Hour, nil)
	const workers, ops = 4, 20000
	var misses atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				j.Put(strconv.Itoa(base+i), PendingPrediction{})
				if i%2 == 1 {
					if _, ok := j.Take(strconv.Itoa(base + i - 1)); !ok {
						misses.Add(1)
					}
				}
			}
		}(w * ops)
	}
	wg.Wait()
	if m := misses.Load(); m != 0 {
		t.Fatalf("%d Takes of parked IDs missed", m)
	}
	if got := j.Len(); got != workers*ops/2 {
		t.Fatalf("Len = %d, want %d", got, workers*ops/2)
	}
}

// BenchmarkJoinBufferAtCapacity times one op of churnAtCapacity on a
// full buffer. Run with:
//
//	go test ./internal/quality -run '^$' -bench JoinBufferAtCapacity
func BenchmarkJoinBufferAtCapacity(b *testing.B) {
	j, ids := fullJoinBuffer()
	b.ResetTimer()
	churnAtCapacity(j, ids, b.N)
}

// counterValue digs a series value out of a registry snapshot.
func counterValue(reg *telemetry.Registry, name string, labels ...telemetry.Label) float64 {
	snap := reg.Snapshot()
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if labelsMatch(s.Labels, labels) {
				return s.Value
			}
		}
	}
	return math.NaN()
}

func labelsMatch(have, want []telemetry.Label) bool {
	if len(have) != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestTrackerBreaches(t *testing.T) {
	reg := telemetry.New()
	tr := NewTracker(reg, Options{Window: 512, Checks: true})

	// Build a healthy baseline from a separable score stream.
	r := rand.New(rand.NewSource(3))
	bb := NewBaselineBuilder()
	var bScores, bLabels []float64
	for i := 0; i < 600; i++ {
		s, y := streamDists["discriminative"](r)
		bScores = append(bScores, s)
		bLabels = append(bLabels, y)
	}
	bb.Observe("d0", bScores, bLabels)
	tr.SetBaseline(bb.Build())

	if v := counterValue(reg, "mamdr_quality_baseline_missing"); v != 0 {
		t.Fatalf("baseline_missing = %v after SetBaseline, want 0", v)
	}

	// Matched traffic: replay the same regime. No breaches expected.
	labels := make([]bool, len(bLabels))
	for i, y := range bLabels {
		labels[i] = y > 0.5
	}
	tr.ObserveScores("d0", bScores)
	tr.ObserveLabeled("d0", bScores, labels)
	tr.Flush()
	if v := counterValue(reg, "mamdr_quality_psi_breaches_total",
		telemetry.L("domain", "d0"), telemetry.L("kind", "score")); v != 0 {
		t.Fatalf("matched traffic fired %v score-PSI breaches", v)
	}
	if v := counterValue(reg, "mamdr_quality_auc_floor_breaches_total"); v != 0 {
		t.Fatalf("matched traffic fired %v AUC-floor breaches", v)
	}
	if v := counterValue(reg, "mamdr_quality_auc", telemetry.L("domain", "d0")); v < 0.6 {
		t.Fatalf("windowed AUC on separable stream = %v, want > 0.6", v)
	}

	// Drifted traffic: pile scores into one corner with inverted labels.
	drifted := make([]float64, 600)
	dLabels := make([]bool, 600)
	for i := range drifted {
		drifted[i] = 0.93 + 0.05*r.Float64()
		dLabels[i] = i%25 == 0
	}
	tr.ObserveScores("d0", drifted)
	tr.ObserveLabeled("d0", drifted, dLabels)
	tr.Flush()
	if v := counterValue(reg, "mamdr_quality_psi_breaches_total",
		telemetry.L("domain", "d0"), telemetry.L("kind", "score")); v == 0 {
		t.Fatal("drifted traffic fired no score-PSI breaches")
	}
	if v := counterValue(reg, "mamdr_quality_psi",
		telemetry.L("domain", "d0"), telemetry.L("kind", "score")); v <= 0.25 {
		t.Fatalf("score PSI after drift = %v, want > 0.25", v)
	}
	if v := counterValue(reg, "mamdr_quality_auc_floor_breaches_total"); v == 0 {
		t.Fatal("inverted-label traffic fired no AUC-floor breaches")
	}

	// The snapshot must survive its JSON codec (no NaN gauges).
	if err := reg.Snapshot().Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
}

func TestTrackerChecksOffNeverBreaches(t *testing.T) {
	reg := telemetry.New()
	tr := NewTracker(reg, Options{Checks: false})
	bb := NewBaselineBuilder()
	bb.Observe("d0", []float64{0.1, 0.2, 0.8, 0.9}, []float64{0, 0, 1, 1})
	tr.SetBaseline(bb.Build())
	// Past every evidence threshold, so only Checks keeps the counters at 0.
	scores := make([]float64, MinScores+MinLabeled)
	labels := make([]bool, len(scores))
	for i := range scores {
		scores[i] = 0.99
	}
	tr.ObserveScores("d0", scores)
	tr.ObserveLabeled("d0", scores, labels)
	tr.Flush()
	for _, name := range []string{
		"mamdr_quality_psi_breaches_total",
		"mamdr_quality_auc_floor_breaches_total",
		"mamdr_quality_calibration_breaches_total",
	} {
		snap := reg.Snapshot()
		for _, f := range snap.Families {
			if f.Name != name {
				continue
			}
			for _, s := range f.Series {
				if s.Value != 0 {
					t.Fatalf("%s{%v} = %v with Checks off", name, s.Labels, s.Value)
				}
			}
		}
	}
	// Gauges still emit — the trainer path shares the schema.
	if v := counterValue(reg, "mamdr_quality_psi",
		telemetry.L("domain", "d0"), telemetry.L("kind", "score")); v <= 0.25 {
		t.Fatalf("passive tracker PSI = %v, want > 0.25 (gauges must still emit)", v)
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.ObserveScores("d", []float64{0.5})
	tr.ObserveLabeled("d", []float64{0.5}, []bool{true})
	tr.SetBaseline(nil)
	tr.Flush()
	tr.FeedbackJoined()
	tr.FeedbackMissed()
	tr.FeedbackEvicted(3)
	if tr.Baseline() != nil {
		t.Fatal("nil tracker Baseline() should be nil")
	}
}

func TestTrackerMissingBaselineCounted(t *testing.T) {
	reg := telemetry.New()
	tr := NewTracker(reg, Options{})
	if v := counterValue(reg, "mamdr_quality_baseline_missing"); v != 1 {
		t.Fatalf("baseline_missing at start = %v, want 1", v)
	}
	tr.SetBaseline(nil)
	if v := counterValue(reg, "mamdr_quality_baseline_missing_total"); v != 1 {
		t.Fatalf("baseline_missing_total = %v, want 1", v)
	}
	// PSI gauges exist but stay 0 without a baseline.
	tr.ObserveScores("d0", []float64{0.1, 0.9, 0.5})
	tr.Flush()
	if v := counterValue(reg, "mamdr_quality_psi",
		telemetry.L("domain", "d0"), telemetry.L("kind", "score")); v != 0 {
		t.Fatalf("PSI without baseline = %v, want 0", v)
	}
}
