package mamdr

// The benchmarks below regenerate every table and figure of the MAMDR
// paper's evaluation section, one benchmark per artifact, at the
// harness's Tiny scale so `go test -bench=.` completes on a laptop.
// For recorded numbers at the larger Quick/Full scales, run
// `go run ./cmd/experiments -run all -scale quick` (see EXPERIMENTS.md).
//
// The reported "tables/op" metric is literal: each iteration produces
// the complete table.

import (
	"context"
	"fmt"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/cluster"
	"mamdr/internal/data"
	"mamdr/internal/exp"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/ps"
	"mamdr/internal/synth"
)

// benchTable runs one registered experiment per iteration.
func benchTable(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(id, exp.Tiny)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkTableI regenerates the dataset statistics table (Table I;
// Tables II-IV are produced by BenchmarkTableII_IV).
func BenchmarkTableI(b *testing.B) { benchTable(b, "table1") }

// BenchmarkTableII_IV regenerates the per-domain statistics tables.
func BenchmarkTableII_IV(b *testing.B) { benchTable(b, "table2-4") }

// BenchmarkTableV regenerates the headline baseline-vs-MAMDR comparison.
func BenchmarkTableV(b *testing.B) { benchTable(b, "table5") }

// BenchmarkTableVI regenerates the DN/DR ablation.
func BenchmarkTableVI(b *testing.B) { benchTable(b, "table6") }

// BenchmarkTableVII regenerates the per-domain Amazon-6 ablation.
func BenchmarkTableVII(b *testing.B) { benchTable(b, "table7") }

// BenchmarkTableVIII regenerates the industry-scale comparison.
func BenchmarkTableVIII(b *testing.B) { benchTable(b, "table8") }

// BenchmarkTableIX regenerates the top-10 industry domains comparison.
func BenchmarkTableIX(b *testing.B) { benchTable(b, "table9") }

// BenchmarkTableX regenerates the learning-framework comparison.
func BenchmarkTableX(b *testing.B) { benchTable(b, "table10") }

// BenchmarkFigure8 regenerates the DR sample-number sweep.
func BenchmarkFigure8(b *testing.B) { benchTable(b, "figure8") }

// BenchmarkFigure9 regenerates the inner/outer learning-rate sweep.
func BenchmarkFigure9(b *testing.B) { benchTable(b, "figure9") }

// BenchmarkDNOrderAblation measures DN's shuffled vs fixed domain order.
func BenchmarkDNOrderAblation(b *testing.B) { benchTable(b, "ablation-dnorder") }

// BenchmarkDROrderAblation measures DR's fixed helper→target order
// against reversed and helper-only variants.
func BenchmarkDROrderAblation(b *testing.B) { benchTable(b, "ablation-drorder") }

// BenchmarkPSCache measures the embedding PS-Worker cache's
// synchronization-traffic saving.
func BenchmarkPSCache(b *testing.B) { benchTable(b, "ablation-cache") }

// BenchmarkConflictScaling measures PCGrad's O(n²) vs DN's O(n) per-
// epoch wall time as the domain count grows.
func BenchmarkConflictScaling(b *testing.B) { benchTable(b, "conflict-scaling") }

// BenchmarkConflictCosine measures the cross-domain gradient cosine
// diagnostic before/after Alternate and DN training.
func BenchmarkConflictCosine(b *testing.B) { benchTable(b, "conflict-cosine") }

// BenchmarkGeneralizationLODO measures zero-shot transfer to held-out
// domains (the conclusion's domain-generalization extension).
func BenchmarkGeneralizationLODO(b *testing.B) { benchTable(b, "generalization") }

// --- micro-benchmarks: training-loop building blocks ---

func benchDataset(b *testing.B) *data.Dataset {
	b.Helper()
	return synth.Generate(synth.Taobao10(2000, 3))
}

// BenchmarkModelForward measures one forward pass per registered model
// structure on a 64-sample batch.
func BenchmarkModelForward(b *testing.B) {
	ds := benchDataset(b)
	batch := ds.MakeBatch(0, ds.Domains[0].Train[:min(64, len(ds.Domains[0].Train))])
	for _, name := range models.Names() {
		b.Run(name, func(b *testing.B) {
			m := models.MustNew(name, models.Config{Dataset: ds, EmbDim: 8, Hidden: []int{32, 16}, Seed: 3})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Forward(batch, false)
			}
		})
	}
}

// BenchmarkTrainEpoch measures one full training epoch per framework on
// the Taobao-10 Tiny dataset with the MLP base model.
func BenchmarkTrainEpoch(b *testing.B) {
	ds := benchDataset(b)
	for _, key := range framework.Keys() {
		b.Run(key, func(b *testing.B) {
			m := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 8, Hidden: []int{32, 16}, Seed: 3})
			fw := framework.MustNew(key)
			cfg := framework.Config{Epochs: 1, BatchSize: 64, Seed: 3}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw.Fit(m, ds, cfg)
			}
		})
	}
}

// BenchmarkClusterSync measures the scatter-gather synchronization path
// against 1 vs 4 in-process parameter-server shards: each iteration is
// one worker round — pull all dense tensors, pull a batch's embedding
// rows from a wide table, push the combined delta. The sub-benchmark
// names report the plan imbalance so the partition quality is visible
// next to the latency numbers.
func BenchmarkClusterSync(b *testing.B) {
	const embRows, embCols = 20000, 16
	params := []*autograd.Tensor{
		autograd.ParamZeros(embRows, embCols), // wide embedding table, field 0
		autograd.ParamZeros(128, 64),          // dense
		autograd.ParamZeros(64, 1),            // dense
	}
	tables := map[int]int{0: 0}
	layout := ps.LayoutOf(params, tables)

	rows := make([]int, 512)
	for i := range rows {
		rows[i] = (i * 39) % embRows // spread over the table
	}
	rowDeltas := make([][]float64, len(rows))
	for i := range rowDeltas {
		rowDeltas[i] = make([]float64, embCols)
	}
	denseDelta := make([]float64, 128*64)

	for _, shards := range []int{1, 4} {
		plan := ps.NewPlan(layout, shards, 7)
		dep, err := cluster.Deploy(params, plan, cluster.ShardOptions{}, cluster.Options{}, cluster.Placement{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d/imbalance=%.2f", shards, plan.Imbalance()), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep.Router.PullDense(ctx)
				dep.Router.PullRows(ctx, 0, rows)
				dep.Router.PushDelta(ctx, ps.Delta{
					WorkerID: 0, Seq: int64(i + 1),
					Dense:     map[int][]float64{1: denseDelta},
					Rows:      map[int][]int{0: rows},
					RowDeltas: map[int][][]float64{0: rowDeltas},
				})
			}
		})
	}
}
