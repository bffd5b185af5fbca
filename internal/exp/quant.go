package exp

import (
	"fmt"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/quant"
	"mamdr/internal/synth"
)

// QuantTradeoff measures what int8 snapshot quantization (the serving
// twin of §IV-E's embedding cache, see internal/quant) costs in ranking
// quality: per-dataset test AUC served from exact float64 composed
// parameters versus the same parameters with every embedding table
// round-tripped through the symmetric-per-row int8 codec. The memory
// side is exact arithmetic — cols+4 bytes per row against 8·cols — so
// the table pairs the AUC delta with the compression it buys. Runs on
// the Amazon-6 equivalent and a Zipf-imbalanced variant (skewed domain
// sizes concentrate specific-parameter mass, the harder case for a
// shared quantization grid).
func QuantTradeoff(s *Session) *Table {
	datasets := []*data.Dataset{
		s.dataset("amazon-6"),
		synth.Generate(synth.WithZipfImbalance(synth.Amazon6(s.TotalSamples, s.Seed), 1.4)),
	}
	datasets[1].Name = "amazon-6-zipf"

	t := &Table{
		ID:     "Extension Quant",
		Title:  "Serving-snapshot int8 quantization: AUC cost vs embedding-table compression",
		Header: []string{"Dataset", "AUC fp64", "AUC int8", "ΔAUC", "bytes/row fp64", "bytes/row int8", "compression"},
		Notes: []string{"Embedding tables quantized symmetric-per-row int8 with float32 scales " +
			"(internal/quant), dense layers untouched — the storage the serve " +
			"path uses under -snapshot-quant=int8."},
	}
	cfg := s.arm("amazon-6", "mlp", "mamdr").config()
	for _, ds := range datasets {
		m := models.MustNew("mlp", modelConfig(ds, s.Seed))
		st := framework.MustNew("mamdr").Fit(m, ds, cfg).(*core.State)

		var aucF, aucQ []float64
		for d := range ds.Domains {
			b := ds.FullBatch(d, data.Test)
			aucF = append(aucF, metrics.AUC(scoreWith(st, st.ComposedFor(d), b), b.Labels))
			aucQ = append(aucQ, metrics.AUC(scoreWith(st, quantRoundTrip(st, d), b), b.Labels))
		}
		meanF, meanQ := metrics.Mean(aucF), metrics.Mean(aucQ)

		fpBytes, qBytes := tableBytes(st.Model)
		t.Rows = append(t.Rows, []string{
			ds.Name, f4(meanF), f4(meanQ), fmt.Sprintf("%+.4f", meanQ-meanF),
			fmt.Sprintf("%d", fpBytes), fmt.Sprintf("%d", qBytes),
			fmt.Sprintf("%.1fx", float64(fpBytes)/float64(qBytes)),
		})
	}
	return t
}

// scoreWith serves one batch with an explicit parameter vector,
// restoring the model afterwards — the experiment-side mirror of the
// serve path's restore-then-forward.
func scoreWith(st *core.State, v paramvec.Vector, b *data.Batch) []float64 {
	params := st.Model.Parameters()
	saved := paramvec.Snapshot(params)
	paramvec.Restore(params, v)
	logits := st.Model.Forward(b, false)
	probs := framework.SigmoidAll(logits)
	logits.Release()
	paramvec.Restore(params, saved)
	return probs
}

// quantRoundTrip composes domain d's serving parameters and round-trips
// every embedding table through the int8 codec — precisely the values
// the quantized serve path dequantizes row by row.
func quantRoundTrip(st *core.State, d int) paramvec.Vector {
	composed := st.ComposedFor(d)
	emb := models.EmbeddingTablesOf(st.Model)
	params := st.Model.Parameters()
	v := make(paramvec.Vector, len(composed))
	for p, seg := range composed {
		if _, isTable := emb[p]; !isTable {
			v[p] = seg
			continue
		}
		v[p] = quant.Quantize(seg, params[p].Rows, params[p].Cols).Dequantize()
	}
	return v
}

// tableBytes sums per-row storage across the model's embedding tables,
// exact vs int8 (quant.Table arithmetic, no estimation).
func tableBytes(m models.Model) (fp64, int8Bytes int) {
	params := m.Parameters()
	for p := range models.EmbeddingTablesOf(m) {
		cols := params[p].Cols
		fp64 += 8 * cols
		int8Bytes += cols + 4
	}
	return fp64, int8Bytes
}
