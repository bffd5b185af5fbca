package exp

import (
	"fmt"
	"slices"
	"sort"

	"mamdr/internal/metrics"
)

// method is one row or column of a table: its display name and the
// models.New and framework keys it trains (Table X's rows name only a
// model, its columns only a framework).
type method struct{ name, model, fw string }

// names lists the methods' display names.
func names(ms []method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	return out
}

// arms is one arm per method on dataset.
func (s *Session) arms(dataset string, ms []method) []Arm {
	out := make([]Arm, len(ms))
	for i, m := range ms {
		out[i] = s.arm(dataset, m.model, m.fw)
	}
	return out
}

// seeds is a at the fit seeds a.Seed, a.Seed+1, ..., a.Seed+n-1.
func seeds(a Arm, n int) []Arm {
	out := make([]Arm, n)
	for i := range out {
		out[i] = a
		out[i].Seed += int64(i)
	}
	return out
}

// TableI reproduces the overall dataset statistics table.
func TableI(s *Session) *Table {
	t := &Table{
		ID:     "Table I",
		Title:  "Overall statistics of the generated benchmark datasets",
		Header: []string{"Dataset", "#Domain", "#User", "#Item", "#Train", "#Val", "#Test", "Sample/Domain"},
		Notes: []string{fmt.Sprintf("Synthetic equivalents at scale %d samples per benchmark "+
			"(the paper's Table I reports the original Amazon/Taobao datasets).", s.TotalSamples)},
	}
	for _, name := range append(slices.Clone(benchmarks), "taobao-online") {
		o := s.dataset(name).Overall()
		t.Rows = append(t.Rows, []string{
			o.Name,
			fmt.Sprintf("%d", o.NumDomains),
			fmt.Sprintf("%d", o.NumUsers),
			fmt.Sprintf("%d", o.NumItems),
			fmt.Sprintf("%d", o.TrainSamples),
			fmt.Sprintf("%d", o.ValSamples),
			fmt.Sprintf("%d", o.TestSamples),
			fmt.Sprintf("%d", o.SamplesPerDomain),
		})
	}
	return t
}

// TableII_IV reproduces the per-domain statistics tables (II: Amazon-6,
// III: Amazon-13, IV: Taobao-30).
func TableII_IV(s *Session) []*Table {
	var out []*Table
	for _, spec := range []struct{ id, dataset string }{
		{"Table II", "amazon-6"},
		{"Table III", "amazon-13"},
		{"Table IV", "taobao-30"},
	} {
		ds := s.dataset(spec.dataset)
		t := &Table{
			ID:     spec.id,
			Title:  fmt.Sprintf("Per-domain statistics of %s", ds.Name),
			Header: []string{"Domain", "#Samples", "Percentage", "CTR Ratio"},
		}
		for _, st := range ds.Stats() {
			t.Rows = append(t.Rows, []string{
				st.Name,
				fmt.Sprintf("%d", st.Samples),
				fmt.Sprintf("%.2f%%", st.Percentage),
				fmt.Sprintf("%.2f", st.CTRRatio),
			})
		}
		out = append(out, t)
	}
	return out
}

// tableVMethods lists Table V's rows: baselines alternately trained,
// plus MLP optimized by MAMDR.
var tableVMethods = []method{
	{"MLP", "mlp", "alternate"},
	{"WDL", "wdl", "alternate"},
	{"NeurFM", "neurfm", "alternate"},
	{"AutoInt", "autoint", "alternate"},
	{"DeepFM", "deepfm", "alternate"},
	{"Shared-bottom", "sharedbottom", "alternate"},
	{"MMOE", "mmoe", "alternate"},
	{"PLE", "ple", "alternate"},
	{"Star", "star", "alternate"},
	{"MLP+MAMDR", "mlp", "mamdr"},
}

// TableV reproduces the headline comparison: each baseline model
// alternately trained versus MLP+MAMDR, reporting average AUC and
// average RANK per dataset.
func TableV(s *Session) *Table {
	// The paper sets DR's sample number k to [3,5,5,5,5] for the five
	// benchmarks respectively. Only DR reads k, so it is set on the
	// MAMDR arm alone: the baselines are the same fits as Tables VI
	// and X's.
	sampleK := []int{3, 5, 5, 5, 5}
	arms := make([][]Arm, len(benchmarks)) // [dataset][method]
	for di, name := range benchmarks {
		arms[di] = s.arms(name, tableVMethods)
		for i := range arms[di] {
			if arms[di][i].Framework == "mamdr" {
				arms[di][i].SampleK = sampleK[di]
			}
		}
	}
	auc := s.Fit(slices.Concat(arms...))

	t := &Table{
		ID:    "Table V",
		Title: "Comparison with multi-domain recommendation methods (avg AUC / avg RANK)",
		Notes: []string{"All baselines are trained alternately across domains as in the paper; " +
			"RANK is the average per-domain rank among the methods (lower is better)."},
	}
	t.Header = []string{"Method"}
	ranks := make([]map[string]float64, len(benchmarks))
	for di, name := range benchmarks {
		n := s.dataset(name).Name
		t.Header = append(t.Header, n+" AUC", n+" RANK")
		perDomain := map[string][]float64{}
		for mi, m := range tableVMethods {
			perDomain[m.name] = auc[arms[di][mi]]
		}
		ranks[di] = metrics.RankAmong(perDomain)
	}
	for mi, m := range tableVMethods {
		row := []string{m.name}
		for di := range benchmarks {
			row = append(row, f4(metrics.Mean(auc[arms[di][mi]])), f1(ranks[di][m.name]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ablationVariants lists Table VI/VII's rows.
var ablationVariants = []method{
	{"MLP+MAMDR (DN+DR)", "mlp", "mamdr"},
	{"w/o DN", "mlp", "dr"},
	{"w/o DR", "mlp", "dn"},
	{"w/o DN+DR", "mlp", "alternate"},
}

// TableVI reproduces the DN/DR ablation across the five benchmarks.
func TableVI(s *Session) *Table {
	t := &Table{
		ID:     "Table VI",
		Title:  "Ablation study of DN and DR (avg AUC)",
		Header: []string{"Method"},
	}
	for _, name := range benchmarks {
		t.Header = append(t.Header, s.dataset(name).Name)
	}
	t.Rows = s.meanRows(names(ablationVariants), len(benchmarks), func(r, c int) []Arm {
		return s.arms(benchmarks[c], ablationVariants[r:r+1])
	})
	return t
}

// TableVII reproduces the per-domain ablation on Amazon-6: Table VI's
// Amazon-6 column, per domain.
func TableVII(s *Session) *Table {
	arms := s.arms("amazon-6", ablationVariants)
	auc := s.Fit(arms)

	t := &Table{
		ID:     "Table VII",
		Title:  "Per-domain results of the ablation on Amazon-6 (AUC)",
		Header: []string{"Method"},
	}
	for _, dom := range s.dataset("amazon-6").Domains {
		t.Header = append(t.Header, dom.Name)
	}
	for i, v := range ablationVariants {
		row := []string{v.name}
		for _, a := range auc[arms[i]] {
			row = append(row, f4(a))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// tableVIIIMethods lists the industry experiment's rows (Tables VIII
// and IX show the same fits). The paper's production configuration
// pairs an SGD inner loop (lr 0.1) with an Adagrad outer loop; at this
// substitute's much smaller scale that pair underfits every method
// equally, so the industry experiment keeps the benchmark configuration
// (Adam inner loop) — the distributed ps package still exercises the
// SGD+Adagrad pair. EXPERIMENTS.md documents the deviation.
var tableVIIIMethods = []method{
	{"RAW", "raw", "alternate"},
	{"MMOE", "mmoe", "alternate"},
	{"CGC", "cgc", "alternate"},
	{"PLE", "ple", "alternate"},
	{"RAW+Separate", "raw", "separate"},
	{"RAW+DN", "raw", "dn"},
	{"RAW+MAMDR", "raw", "mamdr"},
}

// TableVIII reproduces the industry-scale average-AUC comparison.
func TableVIII(s *Session) *Table {
	t := &Table{
		ID:     "Table VIII",
		Title:  "Results on the industry-scale dataset (avg AUC)",
		Header: []string{"Method", "AUC"},
		Notes: []string{fmt.Sprintf("Taobao-online equivalent: %d Zipf-sized domains, %d samples.",
			s.IndustryDomains, s.IndustrySamples)},
	}
	t.Rows = s.meanRows(names(tableVIIIMethods), 1, func(r, _ int) []Arm {
		return s.arms("taobao-online", tableVIIIMethods[r:r+1])
	})
	return t
}

// TableIX reproduces the top-10 largest industry domains comparison.
func TableIX(s *Session) *Table {
	arms := s.arms("taobao-online", tableVIIIMethods)
	auc := s.Fit(arms)

	type sized struct{ id, samples int }
	var order []sized
	for _, dom := range s.dataset("taobao-online").Domains {
		order = append(order, sized{dom.ID, dom.Samples()})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].samples > order[b].samples })
	top := order
	if len(top) > 10 {
		top = top[:10]
	}

	t := &Table{
		ID:     "Table IX",
		Title:  "Results on the top-10 largest domains of the industry dataset (AUC)",
		Header: []string{"Method"},
	}
	for i := range top {
		t.Header = append(t.Header, fmt.Sprintf("Top %d", i+1))
	}
	for i, m := range tableVIIIMethods {
		row := []string{m.name}
		for _, d := range top {
			row = append(row, f4(auc[arms[i]][d.id]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// tableXFrameworks lists Table X's columns.
var tableXFrameworks = []method{
	{name: "Alternate", fw: "alternate"},
	{name: "Alternate+Finetune", fw: "finetune"},
	{name: "Weighted Loss", fw: "weighted"},
	{name: "PCGrad", fw: "pcgrad"},
	{name: "MAML", fw: "maml"},
	{name: "Reptile", fw: "reptile"},
	{name: "MLDG", fw: "mldg"},
	{name: "DN", fw: "dn"},
	{name: "DR", fw: "dr"},
	{name: "MAMDR (DN+DR)", fw: "mamdr"},
}

// tableXModels lists Table X's rows.
var tableXModels = []method{
	{name: "MLP", model: "mlp"},
	{name: "WDL", model: "wdl"},
	{name: "NeurFM", model: "neurfm"},
	{name: "DeepFM", model: "deepfm"},
	{name: "Shared-bottom", model: "sharedbottom"},
	{name: "Star", model: "star"},
}

// TableX reproduces the learning-framework comparison on Taobao-10:
// every framework crossed with every model structure.
func TableX(s *Session) *Table {
	t := &Table{
		ID:     "Table X",
		Title:  "Comparison with other learning frameworks on Taobao-10 (avg AUC)",
		Header: append([]string{"Model"}, names(tableXFrameworks)...),
	}
	t.Rows = s.meanRows(names(tableXModels), len(tableXFrameworks), func(r, c int) []Arm {
		return []Arm{s.arm("taobao-10", tableXModels[r].model, tableXFrameworks[c].fw)}
	})
	return t
}

// Figure8 reproduces the DR sample-number sweep (k ∈ {1,3,5,7,9}) on
// Taobao-30; the paper finds a peak at k=5. Single runs are noisy at
// this scale, so each point averages three seeds.
func Figure8(s *Session) *Table {
	ks := []int{1, 3, 5, 7, 9}
	labels := make([]string, len(ks))
	for i, k := range ks {
		labels[i] = fmt.Sprintf("%d", k)
	}
	t := &Table{
		ID:     "Figure 8",
		Title:  "MLP+MAMDR avg AUC vs DR sample number k (Taobao-30, mean of 3 seeds)",
		Header: []string{"k", "AUC"},
	}
	t.Rows = s.meanRows(labels, 1, func(r, _ int) []Arm {
		a := s.arm("taobao-30", "mlp", "mamdr")
		a.SampleK = ks[r]
		return seeds(a, 3)
	})
	return t
}

// Figure9 reproduces the inner/outer learning-rate sweep for DN on
// Taobao-10: α ∈ {1e-1, 1e-2, 1e-3} × β ∈ {1, 0.5, 0.1, 0.05}. The
// paper's findings: α must be small for the Taylor expansion to hold,
// and β=1 degrades DN to alternate training.
func Figure9(s *Session) *Table {
	alphas := []float64{1e-1, 1e-2, 1e-3}
	betas := []float64{1, 0.5, 0.1, 0.05}
	t := &Table{
		ID:     "Figure 9",
		Title:  "DN avg AUC under different inner (α) and outer (β) learning rates (Taobao-10, mean of 3 seeds)",
		Header: []string{"α \\ β"},
	}
	for _, b := range betas {
		t.Header = append(t.Header, fmt.Sprintf("β=%g", b))
	}
	labels := make([]string, len(alphas))
	for i, a := range alphas {
		labels[i] = fmt.Sprintf("α=%g", a)
	}
	t.Rows = s.meanRows(labels, len(betas), func(r, c int) []Arm {
		a := s.arm("taobao-10", "mlp", "dn")
		// The β=1 degradation to alternate training only shows once
		// training has converged, so this sweep runs a triple epoch
		// budget. Adam inner loop as in the paper's benchmark
		// configuration (its α=1e-3 sweet spot is an Adam-scale rate);
		// plain SGD outside so β is exactly Eq. 3's coefficient.
		a.Epochs = 3 * s.Epochs
		a.LR, a.OuterLR = alphas[r], betas[c]
		a.InnerOpt, a.OuterOpt = "adam", "sgd"
		return seeds(a, 3)
	})
	return t
}
