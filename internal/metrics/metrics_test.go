package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestAUCPerfectRanking(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []float64{1, 1, 0, 0}
	if got := AUC(scores, labels); got != 1 {
		t.Fatalf("AUC = %g, want 1", got)
	}
}

func TestAUCInvertedRanking(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []float64{1, 1, 0, 0}
	if got := AUC(scores, labels); got != 0 {
		t.Fatalf("AUC = %g, want 0", got)
	}
}

func TestAUCAllTiedIsHalf(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []float64{1, 0, 1, 0}
	if got := AUC(scores, labels); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AUC = %g, want 0.5", got)
	}
}

func TestAUCSingleClassIsHalf(t *testing.T) {
	if got := AUC([]float64{0.1, 0.9}, []float64{1, 1}); got != 0.5 {
		t.Fatalf("all-positive AUC = %g, want 0.5", got)
	}
	if got := AUC([]float64{0.1, 0.9}, []float64{0, 0}); got != 0.5 {
		t.Fatalf("all-negative AUC = %g, want 0.5", got)
	}
	if got := AUC(nil, nil); got != 0.5 {
		t.Fatalf("empty AUC = %g, want 0.5", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// One inversion among 2x2 pairs: AUC = 3/4.
	scores := []float64{0.8, 0.3, 0.5, 0.1}
	labels := []float64{1, 1, 0, 0}
	if got := AUC(scores, labels); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AUC = %g, want 0.75", got)
	}
}

func TestAUCMatchesPairwiseDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		scores := make([]float64, n)
		labels := make([]float64, n)
		for i := range scores {
			scores[i] = math.Round(rng.Float64()*10) / 10 // coarse => ties
			labels[i] = float64(rng.Intn(2))
		}
		var pairs, wins float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if labels[i] > 0.5 && labels[j] < 0.5 {
					pairs++
					switch {
					case scores[i] > scores[j]:
						wins++
					case scores[i] == scores[j]:
						wins += 0.5
					}
				}
			}
		}
		want := 0.5
		if pairs > 0 {
			want = wins / pairs
		}
		if got := AUC(scores, labels); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: AUC = %g, pairwise = %g", trial, got, want)
		}
	}
}

func TestAUCMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AUC([]float64{1}, []float64{1, 0})
}

func TestLogLossPerfectPrediction(t *testing.T) {
	got := LogLoss([]float64{1, 0}, []float64{1, 0})
	if got > 1e-9 {
		t.Fatalf("LogLoss = %g, want ~0", got)
	}
}

func TestLogLossUninformativePrediction(t *testing.T) {
	got := LogLoss([]float64{0.5, 0.5}, []float64{1, 0})
	if math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("LogLoss = %g, want ln2", got)
	}
}

func TestLogLossClampsExtremes(t *testing.T) {
	got := LogLoss([]float64{0}, []float64{1})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("LogLoss not clamped: %g", got)
	}
}

func TestLogLossEmpty(t *testing.T) {
	if got := LogLoss(nil, nil); got != 0 {
		t.Fatalf("empty LogLoss = %g", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %g", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("empty Mean = %g", got)
	}
}

func TestRankAmongBasic(t *testing.T) {
	// A wins both domains, C loses both, B in between.
	ranks := RankAmong(map[string][]float64{
		"A": {0.9, 0.8},
		"B": {0.7, 0.7},
		"C": {0.5, 0.6},
	})
	if ranks["A"] != 1 || ranks["B"] != 2 || ranks["C"] != 3 {
		t.Fatalf("ranks = %v", ranks)
	}
}

func TestRankAmongMixed(t *testing.T) {
	// A best in domain 0 (rank 1), worst in domain 1 (rank 2): avg 1.5.
	ranks := RankAmong(map[string][]float64{
		"A": {0.9, 0.5},
		"B": {0.6, 0.8},
	})
	if ranks["A"] != 1.5 || ranks["B"] != 1.5 {
		t.Fatalf("ranks = %v", ranks)
	}
}

func TestRankAmongTiesGetMidRank(t *testing.T) {
	ranks := RankAmong(map[string][]float64{
		"A": {0.7},
		"B": {0.7},
		"C": {0.1},
	})
	if ranks["A"] != 1.5 || ranks["B"] != 1.5 || ranks["C"] != 3 {
		t.Fatalf("ranks = %v", ranks)
	}
}

func TestRankAmongEmpty(t *testing.T) {
	if got := RankAmong(nil); got != nil {
		t.Fatalf("RankAmong(nil) = %v", got)
	}
}

func TestRankAmongMismatchedDomainsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RankAmong(map[string][]float64{"A": {1}, "B": {1, 2}})
}
