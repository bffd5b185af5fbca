// Package quality is the model-quality observability layer: streaming
// prequential evaluation (windowed AUC, logloss, calibration) over live
// prediction/label streams, score- and label-distribution drift
// detection (Population Stability Index against a baseline frozen into
// the model checkpoint), and the telemetry series and breach counters
// the fleet's quality SLOs burn against.
//
// Everything here is O(1) memory per domain — bounded by the configured
// window, independent of stream length — and O(1) work per observation,
// so the evaluators can sit directly on the serving request path.
package quality

import "math"

// DefaultBins is the fixed-bin resolution of the streaming AUC rank
// approximation. Scores are quantized to 1/DefaultBins before ranking;
// the streaming AUC is exact for the quantized stream, and within
// AUCTolerance of the exact AUC on the raw scores for score
// distributions that do not concentrate within single bins (verified by
// the property test in stream_test.go).
const DefaultBins = 1024

// AUCTolerance is the documented agreement bound between the windowed
// streaming AUC and metrics.AUC over the raw scores of the same window,
// at DefaultBins resolution. The binning error is bounded by the
// fraction of positive/negative pairs whose scores fall in the same
// bin; 0.01 holds for every benchmark score distribution in this repo
// and is asserted by TestStreamAUCWithinToleranceOfExact.
const AUCTolerance = 0.01

// sample is one labeled observation in the window ring. Scores are
// stored as float32: the quantization (~1e-7) is far below the bin
// width and halves the ring's memory.
type sample struct {
	score float32
	pos   bool
}

// WindowEval is a streaming prequential evaluator over the most recent
// Window labeled (score, label) observations: windowed AUC via a
// fixed-bin rank approximation, windowed logloss, and windowed
// calibration (predicted CTR vs observed CTR). Not safe for concurrent
// use; callers lock.
type WindowEval struct {
	window int

	ring  []sample
	head  int
	count int

	pos, neg []int64 // per-bin counts over the window

	loglossSum float64
	predSum    float64
	posTotal   int64
}

// NewWindowEval builds an evaluator over the last window observations
// (DefaultWindow when <= 0) at DefaultBins resolution.
func NewWindowEval(window int) *WindowEval {
	if window <= 0 {
		window = DefaultWindow
	}
	return &WindowEval{
		window: window,
		ring:   make([]sample, window),
		pos:    make([]int64, DefaultBins),
		neg:    make([]int64, DefaultBins),
	}
}

// binOf maps a probability to its bin index. Callers pass quantized
// scores so Add and evict agree bit-for-bit.
func binOf(q float64, bins int) int {
	b := int(q * float64(bins))
	if b >= bins {
		b = bins - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Quantize clamps a score to [0, 1] and rounds it to the float32 the
// ring stores — the exact value every windowed statistic is computed
// from. Exported so differential tests can replay the same stream.
func Quantize(score float64) float64 {
	if score < 0 {
		score = 0
	} else if score > 1 {
		score = 1
	}
	return float64(float32(score))
}

// pointLoss is the clamped binary cross entropy of one observation,
// matching metrics.LogLoss's convention.
func pointLoss(q float64, pos bool) float64 {
	const eps = 1e-12
	p := math.Min(math.Max(q, eps), 1-eps)
	if pos {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}

// Add records one labeled observation, evicting the oldest when the
// window is full. O(1).
func (w *WindowEval) Add(score float64, pos bool) {
	q := Quantize(score)
	if w.count == w.window {
		w.evict(w.ring[w.head])
	} else {
		w.count++
	}
	w.ring[w.head] = sample{score: float32(q), pos: pos}
	w.head = (w.head + 1) % w.window
	w.apply(q, pos, +1)
}

func (w *WindowEval) evict(s sample) {
	w.apply(float64(s.score), s.pos, -1)
}

// apply adds (dir=+1) or removes (dir=-1) one observation's
// contribution to every windowed aggregate. Removal recomputes the
// identical deterministic per-sample values, so the only residue is
// floating-point cancellation in the running sums.
func (w *WindowEval) apply(q float64, pos bool, dir int) {
	d := int64(dir)
	b := binOf(q, DefaultBins)
	if pos {
		w.pos[b] += d
		w.posTotal += d
	} else {
		w.neg[b] += d
	}
	w.loglossSum += float64(dir) * pointLoss(q, pos)
	w.predSum += float64(dir) * q
}

// Count returns the number of observations currently in the window.
func (w *WindowEval) Count() int { return w.count }

// Positives returns the number of positive labels in the window.
func (w *WindowEval) Positives() int64 { return w.posTotal }

// PosRate returns the observed positive rate over the window (0 when
// empty).
func (w *WindowEval) PosRate() float64 {
	if w.count == 0 {
		return 0
	}
	return float64(w.posTotal) / float64(w.count)
}

// AUC returns the windowed prequential AUC: the tie-corrected rank
// statistic computed over the bin histograms, identical to metrics.AUC
// on the window's quantized scores. Either class absent (including the
// empty window) reports 0.5, matching the batch convention for
// degenerate domains. O(bins).
func (w *WindowEval) AUC() float64 {
	p := w.posTotal
	n := int64(w.count) - p
	if p == 0 || n == 0 {
		return 0.5
	}
	var cumNeg int64
	var rankSum float64
	for b := 0; b < DefaultBins; b++ {
		if w.pos[b] > 0 {
			rankSum += float64(w.pos[b]) * (float64(cumNeg) + 0.5*float64(w.neg[b]))
		}
		cumNeg += w.neg[b]
	}
	return rankSum / (float64(p) * float64(n))
}

// LogLoss returns the windowed mean binary cross entropy (0 when
// empty).
func (w *WindowEval) LogLoss() float64 {
	if w.count == 0 {
		return 0
	}
	return w.loglossSum / float64(w.count)
}

// CalibrationRatio returns predicted CTR divided by observed CTR over
// the window: Σp / Σy. A well-calibrated model sits near 1; above 1 the
// model over-predicts clicks, below 1 it under-predicts. Returns 0 when
// the window holds no positives (the ratio is undefined; callers must
// not treat 0 as miscalibration — NaN is deliberately never returned
// because the snapshot codec travels over JSON).
func (w *WindowEval) CalibrationRatio() float64 {
	if w.posTotal == 0 {
		return 0
	}
	return w.predSum / float64(w.posTotal)
}

// Histogram returns the window's total (positive + negative) score
// counts folded down to the given number of buckets — the live
// distribution PSI compares against the baseline.
func (w *WindowEval) Histogram(buckets int) []int64 {
	return foldBins(w.pos, w.neg, buckets)
}

// ScoreWindow tracks the score distribution of the most recent Window
// unlabeled predictions — the serving-side score stream, which is far
// denser than the delayed label stream and therefore the primary drift
// signal. Not safe for concurrent use; callers lock.
type ScoreWindow struct {
	window int
	ring   []float32
	head   int
	count  int
	counts []int64
}

// NewScoreWindow builds a window over the last window scores
// (scoreWindow when <= 0) at DefaultBins resolution.
func NewScoreWindow(window int) *ScoreWindow {
	if window <= 0 {
		window = scoreWindow
	}
	return &ScoreWindow{window: window, ring: make([]float32, window), counts: make([]int64, DefaultBins)}
}

// Add records one predicted score. O(1).
func (s *ScoreWindow) Add(score float64) {
	q := Quantize(score)
	if s.count == s.window {
		s.counts[binOf(float64(s.ring[s.head]), DefaultBins)]--
	} else {
		s.count++
	}
	s.ring[s.head] = float32(q)
	s.head = (s.head + 1) % s.window
	s.counts[binOf(q, DefaultBins)]++
}

// Count returns the number of scores currently in the window.
func (s *ScoreWindow) Count() int { return s.count }

// Histogram returns the window's score counts folded down to the given
// number of buckets.
func (s *ScoreWindow) Histogram(buckets int) []int64 {
	return foldBins(s.counts, nil, buckets)
}

// foldBins collapses DefaultBins-long bin counts (a plus optional b)
// into coarse buckets by index range.
func foldBins(a, b []int64, buckets int) []int64 {
	if buckets <= 0 || buckets > DefaultBins {
		buckets = DefaultBins
	}
	out := make([]int64, buckets)
	for i := 0; i < DefaultBins; i++ {
		j := i * buckets / DefaultBins
		out[j] += a[i]
		if b != nil {
			out[j] += b[i]
		}
	}
	return out
}
