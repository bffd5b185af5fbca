package exp

import (
	"fmt"
	"sort"

	"mamdr/internal/data"
	"mamdr/internal/metrics"
	"mamdr/internal/synth"
)

// TableI reproduces the overall dataset statistics table.
func TableI(s Scale) *Table {
	t := &Table{
		ID:     "Table I",
		Title:  "Overall statistics of the generated benchmark datasets",
		Header: []string{"Dataset", "#Domain", "#User", "#Item", "#Train", "#Val", "#Test", "Sample/Domain"},
		Notes: []string{fmt.Sprintf("Synthetic equivalents at scale %d samples per benchmark "+
			"(the paper's Table I reports the original Amazon/Taobao datasets).", s.TotalSamples)},
	}
	dss := benchmarkDatasets(s)
	dss = append(dss, synth.Generate(synth.TaobaoOnline(s.IndustryDomains, s.IndustrySamples, s.Seed)))
	for _, ds := range dss {
		o := ds.Overall()
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
func TableII_IV(s Scale) []*Table {
	var out []*Table
	for _, spec := range []struct {
		id  string
		cfg synth.Config
	}{
		{"Table II", synth.Amazon6(s.TotalSamples, s.Seed)},
		{"Table III", synth.Amazon13(s.TotalSamples, s.Seed)},
		{"Table IV", synth.Taobao30(s.TotalSamples, s.Seed)},
	} {
		ds := synth.Generate(spec.cfg)
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
var tableVMethods = []struct {
	display  string
	modelKey string
	fwKey    string
}{
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
func TableV(s Scale) *Table {
	dss := benchmarkDatasets(s)
	// The paper sets DR's sample number k to [3,5,5,5,5] for the five
	// benchmarks respectively.
	sampleK := []int{3, 5, 5, 5, 5}

	var cells []cell
	for di, ds := range dss {
		ds := ds
		cfg := trainCfg(s)
		cfg.SampleK = sampleK[di]
		for _, m := range tableVMethods {
			m := m
			cells = append(cells, cell{
				method:  m.display,
				dataset: ds.Name,
				fit:     func() []float64 { return fitAndEval(m.fwKey, m.modelKey, ds, s, cfg) },
			})
		}
	}
	results := runCells(cells)

	t := &Table{
		ID:    "Table V",
		Title: "Comparison with multi-domain recommendation methods (avg AUC / avg RANK)",
		Notes: []string{"All baselines are trained alternately across domains as in the paper; " +
			"RANK is the average per-domain rank among the methods (lower is better)."},
	}
	t.Header = []string{"Method"}
	for _, ds := range dss {
		t.Header = append(t.Header, ds.Name+" AUC", ds.Name+" RANK")
	}
	for _, m := range tableVMethods {
		row := []string{m.display}
		for _, ds := range dss {
			perDomain := results[ds.Name]
			ranks := metrics.RankAmong(perDomain)
			row = append(row, f4(metrics.Mean(perDomain[m.display])), f1(ranks[m.display]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ablationVariants lists Table VI/VII's rows.
var ablationVariants = []struct {
	display string
	fwKey   string
}{
	{"MLP+MAMDR (DN+DR)", "mamdr"},
	{"w/o DN", "dr"},
	{"w/o DR", "dn"},
	{"w/o DN+DR", "alternate"},
}

// TableVI reproduces the DN/DR ablation across the five benchmarks.
func TableVI(s Scale) *Table {
	dss := benchmarkDatasets(s)
	cfg := trainCfg(s)

	var cells []cell
	for _, ds := range dss {
		ds := ds
		for _, v := range ablationVariants {
			v := v
			cells = append(cells, cell{
				method:  v.display,
				dataset: ds.Name,
				fit:     func() []float64 { return fitAndEval(v.fwKey, "mlp", ds, s, cfg) },
			})
		}
	}
	results := runCells(cells)

	t := &Table{
		ID:     "Table VI",
		Title:  "Ablation study of DN and DR (avg AUC)",
		Header: []string{"Method"},
	}
	for _, ds := range dss {
		t.Header = append(t.Header, ds.Name)
	}
	for _, v := range ablationVariants {
		row := []string{v.display}
		for _, ds := range dss {
			row = append(row, f4(metrics.Mean(results[ds.Name][v.display])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TableVII reproduces the per-domain ablation on Amazon-6.
func TableVII(s Scale) *Table {
	ds := synth.Generate(synth.Amazon6(s.TotalSamples, s.Seed))
	cfg := trainCfg(s)

	var cells []cell
	for _, v := range ablationVariants {
		v := v
		cells = append(cells, cell{
			method:  v.display,
			dataset: ds.Name,
			fit:     func() []float64 { return fitAndEval(v.fwKey, "mlp", ds, s, cfg) },
		})
	}
	results := runCells(cells)

	t := &Table{
		ID:     "Table VII",
		Title:  "Per-domain results of the ablation on Amazon-6 (AUC)",
		Header: []string{"Method"},
	}
	for _, dom := range ds.Domains {
		t.Header = append(t.Header, dom.Name)
	}
	for _, v := range ablationVariants {
		row := []string{v.display}
		for d := range ds.Domains {
			row = append(row, f4(results[ds.Name][v.display][d]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// tableVIIIMethods lists the industry experiment's rows.
var tableVIIIMethods = []struct {
	display  string
	modelKey string
	fwKey    string
}{
	{"RAW", "raw", "alternate"},
	{"MMOE", "mmoe", "alternate"},
	{"CGC", "cgc", "alternate"},
	{"PLE", "ple", "alternate"},
	{"RAW+Separate", "raw", "separate"},
	{"RAW+DN", "raw", "dn"},
	{"RAW+MAMDR", "raw", "mamdr"},
}

// industryResults trains the Table VIII methods once; Table IX reuses
// the same per-domain results.
func industryResults(s Scale) (*data.Dataset, map[string][]float64) {
	ds := synth.Generate(synth.TaobaoOnline(s.IndustryDomains, s.IndustrySamples, s.Seed))
	// The paper's production configuration pairs an SGD inner loop
	// (lr 0.1) with an Adagrad outer loop; at this substitute's much
	// smaller scale that pair underfits every method equally, so the
	// industry experiment keeps the benchmark configuration (Adam inner
	// loop) — the distributed ps package still exercises the SGD+Adagrad
	// pair. EXPERIMENTS.md documents the deviation.
	cfg := trainCfg(s)

	var cells []cell
	for _, m := range tableVIIIMethods {
		m := m
		cells = append(cells, cell{
			method:  m.display,
			dataset: ds.Name,
			fit:     func() []float64 { return fitAndEval(m.fwKey, m.modelKey, ds, s, cfg) },
		})
	}
	return ds, runCells(cells)[ds.Name]
}

// TableVIII reproduces the industry-scale average-AUC comparison.
func TableVIII(s Scale) *Table {
	_, results := industryResults(s)
	t := &Table{
		ID:     "Table VIII",
		Title:  "Results on the industry-scale dataset (avg AUC)",
		Header: []string{"Method", "AUC"},
		Notes: []string{fmt.Sprintf("Taobao-online equivalent: %d Zipf-sized domains, %d samples.",
			s.IndustryDomains, s.IndustrySamples)},
	}
	for _, m := range tableVIIIMethods {
		t.Rows = append(t.Rows, []string{m.display, f4(metrics.Mean(results[m.display]))})
	}
	return t
}

// TableIX reproduces the top-10 largest industry domains comparison.
func TableIX(s Scale) *Table {
	ds, results := industryResults(s)

	type sized struct{ id, samples int }
	var order []sized
	for _, dom := range ds.Domains {
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
	for _, m := range tableVIIIMethods {
		row := []string{m.display}
		for _, d := range top {
			row = append(row, f4(results[m.display][d.id]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// tableXFrameworks lists Table X's columns.
var tableXFrameworks = []struct {
	display string
	key     string
}{
	{"Alternate", "alternate"},
	{"Alternate+Finetune", "finetune"},
	{"Weighted Loss", "weighted"},
	{"PCGrad", "pcgrad"},
	{"MAML", "maml"},
	{"Reptile", "reptile"},
	{"MLDG", "mldg"},
	{"DN", "dn"},
	{"DR", "dr"},
	{"MAMDR (DN+DR)", "mamdr"},
}

// tableXModels lists Table X's rows.
var tableXModels = []struct {
	display string
	key     string
}{
	{"MLP", "mlp"},
	{"WDL", "wdl"},
	{"NeurFM", "neurfm"},
	{"DeepFM", "deepfm"},
	{"Shared-bottom", "sharedbottom"},
	{"Star", "star"},
}

// TableX reproduces the learning-framework comparison on Taobao-10:
// every framework crossed with every model structure.
func TableX(s Scale) *Table {
	ds := synth.Generate(synth.Taobao10(s.TotalSamples, s.Seed))
	cfg := trainCfg(s)

	var cells []cell
	for _, m := range tableXModels {
		m := m
		for _, fw := range tableXFrameworks {
			fw := fw
			cells = append(cells, cell{
				method:  m.display + "/" + fw.display,
				dataset: ds.Name,
				fit:     func() []float64 { return fitAndEval(fw.key, m.key, ds, s, cfg) },
			})
		}
	}
	results := runCells(cells)[ds.Name]

	t := &Table{
		ID:     "Table X",
		Title:  "Comparison with other learning frameworks on Taobao-10 (avg AUC)",
		Header: []string{"Model"},
	}
	for _, fw := range tableXFrameworks {
		t.Header = append(t.Header, fw.display)
	}
	for _, m := range tableXModels {
		row := []string{m.display}
		for _, fw := range tableXFrameworks {
			row = append(row, f4(metrics.Mean(results[m.display+"/"+fw.display])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figure8 reproduces the DR sample-number sweep (k ∈ {1,3,5,7,9}) on
// Taobao-30; the paper finds a peak at k=5. Single runs are noisy at
// this scale, so each point averages three seeds.
func Figure8(s Scale) *Table {
	ds := synth.Generate(synth.Taobao30(s.TotalSamples, s.Seed))
	ks := []int{1, 3, 5, 7, 9}
	seeds := []int64{s.Seed, s.Seed + 1, s.Seed + 2}

	var cells []cell
	for _, k := range ks {
		for _, seed := range seeds {
			k, seed := k, seed
			cfg := trainCfg(s)
			cfg.SampleK = k
			cfg.Seed = seed
			cells = append(cells, cell{
				method:  fmt.Sprintf("k=%d seed=%d", k, seed),
				dataset: ds.Name,
				fit:     func() []float64 { return fitAndEval("mamdr", "mlp", ds, s, cfg) },
			})
		}
	}
	results := runCells(cells)[ds.Name]

	t := &Table{
		ID:     "Figure 8",
		Title:  "MLP+MAMDR avg AUC vs DR sample number k (Taobao-30, mean of 3 seeds)",
		Header: []string{"k", "AUC"},
	}
	for _, k := range ks {
		var sum float64
		for _, seed := range seeds {
			sum += metrics.Mean(results[fmt.Sprintf("k=%d seed=%d", k, seed)])
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k), f4(sum / float64(len(seeds)))})
	}
	return t
}

// Figure9 reproduces the inner/outer learning-rate sweep for DN on
// Taobao-10: α ∈ {1e-1, 1e-2, 1e-3} × β ∈ {1, 0.5, 0.1, 0.05}. The
// paper's findings: α must be small for the Taylor expansion to hold,
// and β=1 degrades DN to alternate training.
func Figure9(s Scale) *Table {
	ds := synth.Generate(synth.Taobao10(s.TotalSamples, s.Seed))
	alphas := []float64{1e-1, 1e-2, 1e-3}
	betas := []float64{1, 0.5, 0.1, 0.05}
	// The β=1 degradation to alternate training only shows once training
	// has converged, so this sweep runs a triple epoch budget.
	epochs := 3 * s.Epochs

	seeds := []int64{s.Seed, s.Seed + 1, s.Seed + 2}
	var cells []cell
	for _, a := range alphas {
		for _, b := range betas {
			for _, seed := range seeds {
				a, b, seed := a, b, seed
				cfg := trainCfg(s)
				cfg.Epochs = epochs
				cfg.LR, cfg.OuterLR = a, b
				cfg.Seed = seed
				// Adam inner loop as in the paper's benchmark configuration
				// (its α=1e-3 sweet spot is an Adam-scale rate); plain SGD
				// outside so β is exactly Eq. 3's coefficient.
				cfg.InnerOpt, cfg.OuterOpt = "adam", "sgd"
				cells = append(cells, cell{
					method:  fmt.Sprintf("a=%g b=%g s=%d", a, b, seed),
					dataset: ds.Name,
					fit:     func() []float64 { return fitAndEval("dn", "mlp", ds, s, cfg) },
				})
			}
		}
	}
	results := runCells(cells)[ds.Name]

	t := &Table{
		ID:     "Figure 9",
		Title:  "DN avg AUC under different inner (α) and outer (β) learning rates (Taobao-10, mean of 3 seeds)",
		Header: []string{"α \\ β"},
	}
	for _, b := range betas {
		t.Header = append(t.Header, fmt.Sprintf("β=%g", b))
	}
	for _, a := range alphas {
		row := []string{fmt.Sprintf("α=%g", a)}
		for _, b := range betas {
			var sum float64
			for _, seed := range seeds {
				sum += metrics.Mean(results[fmt.Sprintf("a=%g b=%g s=%d", a, b, seed)])
			}
			row = append(row, f4(sum/float64(len(seeds))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
