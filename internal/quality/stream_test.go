package quality

import (
	"math"
	"math/rand"
	"testing"

	"mamdr/internal/metrics"
)

// replayWindow returns the raw scores/labels currently inside the
// window after streaming all n observations through an evaluator of
// the given window size.
func replayWindow(scores, labels []float64, window int) (ws, wl []float64) {
	start := 0
	if len(scores) > window {
		start = len(scores) - window
	}
	return scores[start:], labels[start:]
}

// streamDists are the score-generation regimes the property test
// replays: each returns (score, label) for one draw.
var streamDists = map[string]func(r *rand.Rand) (float64, float64){
	// A discriminative model: positives shifted up, both classes noisy.
	"discriminative": func(r *rand.Rand) (float64, float64) {
		if r.Float64() < 0.3 {
			return clamp01(0.55 + 0.25*r.NormFloat64()), 1
		}
		return clamp01(0.35 + 0.25*r.NormFloat64()), 0
	},
	// Scores uniform and independent of labels: AUC ~ 0.5.
	"uninformative": func(r *rand.Rand) (float64, float64) {
		return r.Float64(), float64(r.Intn(2))
	},
	// Heavy ties: scores drawn from a tiny discrete set.
	"coarse-ties": func(r *rand.Rand) (float64, float64) {
		s := float64(r.Intn(5)) / 4
		y := 0.0
		if r.Float64() < 0.2+0.5*s {
			y = 1
		}
		return s, y
	},
	// Extreme class imbalance (2% positives), like tail CTR domains.
	"imbalanced": func(r *rand.Rand) (float64, float64) {
		if r.Float64() < 0.02 {
			return clamp01(0.6 + 0.2*r.NormFloat64()), 1
		}
		return clamp01(0.3 + 0.2*r.NormFloat64()), 0
	},
}

func clamp01(v float64) float64 { return math.Min(math.Max(v, 0), 1) }

// TestStreamAUCWithinToleranceOfExact is the satellite property test:
// over replayed streams from several score regimes and several window
// sizes, the windowed streaming AUC must stay within AUCTolerance of
// exact metrics.AUC on the raw scores of the same window, and must
// match metrics.AUC bit-tight on the quantized scores (the streaming
// estimator is exact modulo binning).
func TestStreamAUCWithinToleranceOfExact(t *testing.T) {
	for name, draw := range streamDists {
		for _, window := range []int{64, 512, 2048} {
			r := rand.New(rand.NewSource(int64(window)*7919 + int64(len(name))))
			w := NewWindowEval(window)
			n := window*3 + 57 // force wrap-around evictions
			scores := make([]float64, 0, n)
			labels := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				s, y := draw(r)
				scores = append(scores, s)
				labels = append(labels, y)
				w.Add(s, y > 0.5)

				if i%97 != 0 && i != n-1 {
					continue
				}
				ws, wl := replayWindow(scores, labels, window)
				exact := metrics.AUC(ws, wl)
				got := w.AUC()
				if diff := math.Abs(got - exact); diff > AUCTolerance {
					t.Fatalf("%s window=%d i=%d: streaming AUC %.6f vs exact %.6f (|diff| %.6f > %.3f)",
						name, window, i, got, exact, diff, AUCTolerance)
				}
				quant := make([]float64, len(ws))
				for k, s := range ws {
					q := Quantize(s)
					quant[k] = float64(binOf(q, DefaultBins)) // bin index as score: same ordering, same ties
				}
				exactQ := metrics.AUC(quant, wl)
				if diff := math.Abs(got - exactQ); diff > 1e-9 {
					t.Fatalf("%s window=%d i=%d: streaming AUC %.9f vs exact-on-binned %.9f — estimator not exact on quantized stream",
						name, window, i, got, exactQ)
				}
			}
		}
	}
}

// TestStreamAUCDegenerate covers the degenerate domains the batch
// convention defines as 0.5: all-ties, single-class, and empty.
func TestStreamAUCDegenerate(t *testing.T) {
	w := NewWindowEval(128)
	if got := w.AUC(); got != 0.5 {
		t.Fatalf("empty window AUC = %v, want 0.5", got)
	}
	for i := 0; i < 50; i++ { // single class: all positives
		w.Add(0.7, true)
	}
	if got := w.AUC(); got != 0.5 {
		t.Fatalf("all-positive window AUC = %v, want 0.5", got)
	}
	w = NewWindowEval(128)
	for i := 0; i < 50; i++ { // single class: all negatives
		w.Add(0.2, false)
	}
	if got := w.AUC(); got != 0.5 {
		t.Fatalf("all-negative window AUC = %v, want 0.5", got)
	}
	w = NewWindowEval(128)
	for i := 0; i < 60; i++ { // all scores tied, both classes present
		w.Add(0.42, i%3 == 0)
	}
	if got := w.AUC(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("all-ties window AUC = %v, want 0.5", got)
	}
	if exact := metrics.AUC([]float64{0.42, 0.42, 0.42}, []float64{1, 0, 0}); math.Abs(exact-0.5) > 1e-12 {
		t.Fatalf("batch all-ties AUC = %v, want 0.5 (conventions diverged)", exact)
	}
}

// TestWindowEvalLogLossAndCalibration checks the windowed logloss and
// calibration against direct computation over the window contents,
// across eviction wrap-around.
func TestWindowEvalLogLossAndCalibration(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const window = 200
	w := NewWindowEval(window)
	var scores, labels []float64
	for i := 0; i < 730; i++ {
		s, y := streamDists["discriminative"](r)
		scores = append(scores, s)
		labels = append(labels, y)
		w.Add(s, y > 0.5)
	}
	ws, wl := replayWindow(scores, labels, window)
	quant := make([]float64, len(ws))
	var predSum, posSum float64
	for i, s := range ws {
		quant[i] = Quantize(s)
		predSum += quant[i]
		posSum += wl[i]
	}
	if got, want := w.LogLoss(), metrics.LogLoss(quant, wl); math.Abs(got-want) > 1e-9 {
		t.Fatalf("windowed logloss %.9f vs direct %.9f", got, want)
	}
	if got, want := w.CalibrationRatio(), predSum/posSum; math.Abs(got-want) > 1e-9 {
		t.Fatalf("calibration ratio %.9f vs direct %.9f", got, want)
	}
	if got, want := w.PosRate(), posSum/float64(len(wl)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("pos rate %.12f vs direct %.12f", got, want)
	}
}

// TestWindowEvalNoNaN streams pathological inputs (out-of-range scores,
// empty-class stretches) and asserts no reading ever goes NaN/Inf —
// gauges travel through the JSON snapshot codec, which rejects NaN.
func TestWindowEvalNoNaN(t *testing.T) {
	w := NewWindowEval(32)
	inputs := []float64{-3, -0.1, 0, 0.5, 1, 1.5, 42, math.SmallestNonzeroFloat64}
	for i, s := range inputs {
		w.Add(s, i%2 == 0)
		for _, v := range []float64{w.AUC(), w.LogLoss(), w.CalibrationRatio(), w.PosRate()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("after Add(%v): reading %v", s, v)
			}
		}
	}
}

// TestScoreWindowHistogram checks ring eviction keeps counts exact.
func TestScoreWindowHistogram(t *testing.T) {
	s := NewScoreWindow(100)
	for i := 0; i < 1000; i++ {
		s.Add((float64(i%10) + 0.5) / 10) // mid-bucket, away from fold boundaries
	}
	if s.Count() != 100 {
		t.Fatalf("Count = %d, want 100", s.Count())
	}
	h := s.Histogram(10)
	var total int64
	for _, c := range h {
		total += c
		if c != 10 {
			t.Fatalf("histogram %v: want uniform 10 per bucket", h)
		}
	}
	if total != 100 {
		t.Fatalf("histogram total %d, want 100", total)
	}
}

func BenchmarkWindowEvalAdd(b *testing.B) {
	w := NewWindowEval(2048)
	r := rand.New(rand.NewSource(1))
	scores := make([]float64, 4096)
	for i := range scores {
		scores[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(scores[i%len(scores)], i%4 == 0)
	}
}

func BenchmarkWindowEvalAUC(b *testing.B) {
	w := NewWindowEval(2048)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2048; i++ {
		w.Add(r.Float64(), i%4 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.AUC()
	}
}
