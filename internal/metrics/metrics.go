// Package metrics implements the evaluation metrics of the MAMDR paper:
// per-domain AUC for CTR prediction, log loss, and the average-RANK
// aggregation used to compare methods across domains (Table V).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AUC computes the area under the ROC curve from scores and binary
// labels using the rank statistic formulation, with proper handling of
// tied scores (tied groups contribute mid-ranks). It returns 0.5 when
// either class is absent, matching the convention of reporting chance
// performance for degenerate domains.
//
// AUC allocates and sorts an index slice per call. Eval loops that
// compute many AUCs (once per domain per epoch) should reuse an
// AUCScratch instead.
func AUC(scores, labels []float64) float64 {
	var s AUCScratch
	return s.AUC(scores, labels)
}

// AUCScratch computes AUCs while reusing its index buffer across calls,
// eliminating the per-call allocation of the package-level AUC. The
// zero value is ready to use; it is not safe for concurrent use.
type AUCScratch struct {
	idx []int
}

// AUC is identical to the package-level AUC but reuses the scratch's
// index buffer (growing it once to the largest input seen).
func (s *AUCScratch) AUC(scores, labels []float64) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: AUC with %d scores vs %d labels", len(scores), len(labels)))
	}
	n := len(scores)
	if n == 0 {
		return 0.5
	}
	if cap(s.idx) < n {
		s.idx = make([]int, n)
	}
	idx := s.idx[:n]
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	var pos, neg int
	var rankSum float64
	i := 0
	for i < n {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		// mid-rank (1-based) for the tied block [i, j)
		mid := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if labels[idx[k]] > 0.5 {
				rankSum += mid
			}
		}
		i = j
	}
	for _, y := range labels {
		if y > 0.5 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	return (rankSum - float64(pos)*float64(pos+1)/2) / (float64(pos) * float64(neg))
}

// LogLoss computes the mean binary cross entropy between predicted
// probabilities and labels, with probabilities clamped away from {0,1}.
func LogLoss(probs, labels []float64) float64 {
	if len(probs) != len(labels) {
		panic(fmt.Sprintf("metrics: LogLoss with %d probs vs %d labels", len(probs), len(labels)))
	}
	if len(probs) == 0 {
		return 0
	}
	const eps = 1e-12
	var total float64
	for i, p := range probs {
		p = math.Min(math.Max(p, eps), 1-eps)
		if labels[i] > 0.5 {
			total -= math.Log(p)
		} else {
			total -= math.Log(1 - p)
		}
	}
	return total / float64(len(probs))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RankAmong assigns competition-style average ranks to methods from
// their per-domain scores (higher score = better = lower rank). Input is
// methodScores[method][domain]; output is the average rank per method
// across domains, with ties receiving mid-ranks — the "RANK" metric of
// the paper's Table V.
func RankAmong(methodScores map[string][]float64) map[string]float64 {
	if len(methodScores) == 0 {
		return nil
	}
	var names []string
	domains := -1
	for name, scores := range methodScores {
		names = append(names, name)
		if domains == -1 {
			domains = len(scores)
		} else if len(scores) != domains {
			panic(fmt.Sprintf("metrics: method %s has %d domains, want %d", name, len(scores), domains))
		}
	}
	sort.Strings(names)
	sums := map[string]float64{}
	for d := 0; d < domains; d++ {
		type entry struct {
			name  string
			score float64
		}
		es := make([]entry, 0, len(names))
		for _, n := range names {
			es = append(es, entry{n, methodScores[n][d]})
		}
		sort.Slice(es, func(a, b int) bool { return es[a].score > es[b].score })
		i := 0
		for i < len(es) {
			j := i
			for j < len(es) && es[j].score == es[i].score {
				j++
			}
			mid := float64(i+j+1) / 2
			for k := i; k < j; k++ {
				sums[es[k].name] += mid
			}
			i = j
		}
	}
	out := map[string]float64{}
	for _, n := range names {
		out[n] = sums[n] / float64(domains)
	}
	return out
}
