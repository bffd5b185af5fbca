// Package exp is the experiment harness that regenerates every table
// and figure of the MAMDR paper's evaluation section (Tables I-X,
// Figures 8-9) on the synthetic benchmark equivalents, plus the
// design-choice ablations called out in DESIGN.md. It is shared by
// cmd/experiments and the repository's top-level benchmarks.
package exp

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	_ "mamdr/internal/core" // register dn/dr/mamdr frameworks
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/synth"
)

// Scale sizes the experiments. The paper's datasets hold millions of
// interactions; Quick and Full reproduce the same distribution shapes
// at laptop scale.
type Scale struct {
	// TotalSamples is the per-dataset interaction budget.
	TotalSamples int
	// IndustrySamples and IndustryDomains size the Taobao-online
	// equivalent.
	IndustrySamples int
	IndustryDomains int
	// Epochs is the per-method training budget.
	Epochs int
	// BatchSize for all trainers.
	BatchSize int
	// Seed fixes dataset generation and training randomness.
	Seed int64
}

// Quick is the scale used by tests and benchmarks (seconds per cell).
var Quick = Scale{
	TotalSamples:    10000,
	IndustrySamples: 8000,
	IndustryDomains: 20,
	Epochs:          15,
	BatchSize:       64,
	Seed:            17,
}

// Full is cmd/experiments' -scale full (minutes per table). The
// recorded results, results_quick.md, are Quick: -scale quick is the
// default.
var Full = Scale{
	TotalSamples:    24000,
	IndustrySamples: 24000,
	IndustryDomains: 40,
	Epochs:          25,
	BatchSize:       64,
	Seed:            17,
}

// Tiny exercises the harness plumbing in unit tests; orderings are not
// meaningful at this scale.
var Tiny = Scale{
	TotalSamples:    1500,
	IndustrySamples: 1500,
	IndustryDomains: 6,
	Epochs:          2,
	BatchSize:       64,
	Seed:            17,
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		b.WriteString("\n> " + n + "\n")
	}
	return b.String()
}

// f4 formats an AUC to the paper's 4 decimal places.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// f1 formats a rank to 1 decimal place as in Table V.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// benchmarkDatasets builds the five public benchmark equivalents.
func benchmarkDatasets(s Scale) []*data.Dataset {
	return []*data.Dataset{
		synth.Generate(synth.Amazon6(s.TotalSamples, s.Seed)),
		synth.Generate(synth.Amazon13(s.TotalSamples, s.Seed)),
		synth.Generate(synth.Taobao10(s.TotalSamples, s.Seed)),
		synth.Generate(synth.Taobao20(s.TotalSamples, s.Seed)),
		synth.Generate(synth.Taobao30(s.TotalSamples, s.Seed)),
	}
}

// modelConfig is the shared benchmark model configuration (the paper's
// widths scaled to the synthetic dataset sizes).
func modelConfig(ds *data.Dataset, seed int64) models.Config {
	return models.Config{Dataset: ds, EmbDim: 8, Hidden: []int{32, 16}, Seed: seed}
}

// trainCfg is the shared framework configuration.
func trainCfg(s Scale) framework.Config {
	return framework.Config{
		Epochs:    s.Epochs,
		BatchSize: s.BatchSize,
		Seed:      s.Seed,
	}.WithDefaults()
}

// cell identifies one (method, dataset) training job.
type cell struct {
	method  string // display name
	dataset string
	fit     func() []float64 // returns per-domain test AUC
}

// runCells executes jobs concurrently, bounded by GOMAXPROCS.
func runCells(cells []cell) map[string]map[string][]float64 {
	results := make(map[string]map[string][]float64)
	var mu sync.Mutex
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, c := range cells {
		wg.Add(1)
		go func(c cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			aucs := c.fit()
			mu.Lock()
			if results[c.dataset] == nil {
				results[c.dataset] = map[string][]float64{}
			}
			results[c.dataset][c.method] = aucs
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return results
}

// fitAndEval trains one framework+model pair and returns per-domain
// test AUC.
func fitAndEval(fwKey, modelKey string, ds *data.Dataset, s Scale, cfg framework.Config) []float64 {
	m := models.MustNew(modelKey, modelConfig(ds, s.Seed))
	pred := framework.MustNew(fwKey).Fit(m, ds, cfg)
	return framework.EvaluateAUC(pred, ds, data.Test)
}

// sortedKeys returns map keys in sorted order (stable table rows).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
