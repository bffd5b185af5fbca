// Package exp is the experiment harness that regenerates every table
// and figure of the MAMDR paper's evaluation section (Tables I-X,
// Figures 8-9) on the synthetic benchmark equivalents, plus the
// design-choice ablations called out in DESIGN.md. It is shared by
// cmd/experiments and the repository's top-level benchmarks.
package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	_ "mamdr/internal/core" // register dn/dr/mamdr frameworks
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
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

// benchmarks names the five public benchmark equivalents (synth presets).
var benchmarks = []string{"amazon-6", "amazon-13", "taobao-10", "taobao-20", "taobao-30"}

// modelConfig is the shared benchmark model configuration (the paper's
// widths scaled to the synthetic dataset sizes).
func modelConfig(ds *data.Dataset, seed int64) models.Config {
	return models.Config{Dataset: ds, EmbDim: 8, Hidden: []int{32, 16}, Seed: seed}
}

// Arm is one fit a table shows: the models.New key Model, initialised
// at the session's seed, trained on the synth preset Dataset (sized by
// the session's Scale) with the hyperparameters Fit and the fit seed
// Seed. Arms are comparable, so tables that show the same fit share
// one training run.
type Arm struct {
	Dataset string
	Model   string
	framework.Fit
	Seed int64
}

// config is the framework configuration that trains a. The hand-written
// experiments, which run their own loops, take theirs from the arm they
// stand in for.
func (a Arm) config() framework.Config {
	return framework.Config{Epochs: a.Epochs, BatchSize: a.BatchSize, LR: a.LR, OuterLR: a.OuterLR,
		DRLR: a.DRLR, SampleK: a.SampleK, InnerOpt: a.InnerOpt, OuterOpt: a.OuterOpt, Seed: a.Seed}
}

// Session runs experiments at one Scale. It generates each dataset
// once and trains each distinct arm once, however many tables show it.
type Session struct {
	Scale
	slots    chan struct{} // bounds concurrent fits to GOMAXPROCS
	mu       sync.Mutex
	datasets map[string]*data.Dataset
	fits     map[Arm]*fit
}

// fit is one arm's training run; auc is set when done closes.
type fit struct {
	done chan struct{}
	auc  []float64
}

// NewSession returns a session at scale s that has trained nothing.
func NewSession(s Scale) *Session {
	return &Session{Scale: s, slots: make(chan struct{}, runtime.GOMAXPROCS(0)),
		datasets: map[string]*data.Dataset{}, fits: map[Arm]*fit{}}
}

// dataset is the synth preset name at the session's scale; the
// industry preset takes IndustryDomains and IndustrySamples.
func (s *Session) dataset(name string) *data.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[name]
	if !ok {
		cfg := synth.Presets(s.TotalSamples, s.Seed)[name]
		if name == "taobao-online" {
			cfg = synth.TaobaoOnline(s.IndustryDomains, s.IndustrySamples, s.Seed)
		}
		ds = synth.Generate(cfg)
		s.datasets[name] = ds
	}
	return ds
}

// arm is model trained by the framework fw on dataset at the scale's
// epochs, batch size and seed, every other hyperparameter at its
// default.
func (s *Session) arm(dataset, model, fw string) Arm {
	cfg := framework.Config{Spec: framework.Spec{Preset: dataset, Model: model}, Epochs: s.Epochs, BatchSize: s.BatchSize}
	return Arm{Dataset: dataset, Model: model, Fit: cfg.RunSpec(fw).Fit, Seed: s.Seed}
}

// Fit trains every arm the session has not trained yet, GOMAXPROCS at a
// time, and returns each arm's per-domain test AUC.
func (s *Session) Fit(arms []Arm) map[Arm][]float64 {
	fits := make([]*fit, len(arms))
	s.mu.Lock()
	for i, a := range arms {
		if s.fits[a] == nil {
			f := &fit{done: make(chan struct{})}
			s.fits[a] = f
			go func() {
				s.slots <- struct{}{}
				f.auc = s.train(a)
				<-s.slots
				close(f.done)
			}()
		}
		fits[i] = s.fits[a]
	}
	s.mu.Unlock()
	out := make(map[Arm][]float64, len(arms))
	for i, f := range fits {
		<-f.done
		out[arms[i]] = f.auc
	}
	return out
}

// train fits one arm and returns its per-domain test AUC.
func (s *Session) train(a Arm) []float64 {
	ds := s.dataset(a.Dataset)
	m := models.MustNew(a.Model, modelConfig(ds, s.Seed))
	pred := framework.MustNew(a.Framework).Fit(m, ds, a.config())
	return framework.EvaluateAUC(pred, ds, data.Test)
}

// meanRows fits the arms cell(r, c) lists for every row r of labels and
// column c < cols, and renders one row per label: the label, then per
// column the mean over the cell's arms of their mean test AUC.
func (s *Session) meanRows(labels []string, cols int, cell func(r, c int) []Arm) [][]string {
	var arms []Arm
	for r := range labels {
		for c := 0; c < cols; c++ {
			arms = append(arms, cell(r, c)...)
		}
	}
	auc := s.Fit(arms)
	rows := make([][]string, len(labels))
	for r, label := range labels {
		rows[r] = []string{label}
		for c := 0; c < cols; c++ {
			var sum float64
			as := cell(r, c)
			for _, a := range as {
				sum += metrics.Mean(auc[a])
			}
			rows[r] = append(rows[r], f4(sum/float64(len(as))))
		}
	}
	return rows
}
