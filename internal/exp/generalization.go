package exp

import (
	"fmt"

	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
)

// GeneralizationLODO is an extension experiment suggested by the paper's
// conclusion ("the proposed DN and DR have the potential to be used for
// ... domain generalization"): leave-one-domain-out evaluation. For each
// held-out domain, the model trains on the remaining domains only and is
// evaluated zero-shot on the held-out domain's test split (served with
// the pure shared parameters, as a newly registered domain would be).
// DN's cross-domain gradient alignment should transfer better to the
// unseen domain than alternate training; MLDG — designed for exactly
// this setting — is the reference point.
func GeneralizationLODO(s *Session) *Table {
	full := s.dataset("taobao-10")
	methods := []string{"alternate", "mldg", "reptile", "dn"}
	heldOut := []int{0, 3, 7} // small, medium, large domains

	results := map[string][]float64{}
	for _, h := range heldOut {
		train := withoutDomainTrain(full, h)
		for _, key := range methods {
			m := models.MustNew("mlp", modelConfig(train, s.Seed))
			pred := framework.MustNew(key).Fit(m, train, s.arm("taobao-10", "mlp", key).config())
			b := full.FullBatch(h, data.Test)
			results[key] = append(results[key], metrics.AUC(pred.Predict(b), b.Labels))
		}
	}

	t := &Table{
		ID:     "Extension LODO",
		Title:  "Zero-shot AUC on held-out domains (leave-one-domain-out, Taobao-10)",
		Header: []string{"Method"},
		Notes: []string{"Extension beyond the paper's tables: its conclusion proposes DN/DR " +
			"for domain generalization; this measures zero-shot transfer to unseen domains."},
	}
	for _, h := range heldOut {
		t.Header = append(t.Header, fmt.Sprintf("held-out %s", full.Domains[h].Name))
	}
	t.Header = append(t.Header, "mean")
	for _, key := range methods {
		row := []string{framework.MustNew(key).Name()}
		for _, auc := range results[key] {
			row = append(row, f4(auc))
		}
		row = append(row, f4(metrics.Mean(results[key])))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// withoutDomainTrain returns a shallow copy of ds without the held-out
// domain, the others re-indexed 0..n-2, so no framework sees its data
// during training; its test split stays in ds for zero-shot evaluation.
func withoutDomainTrain(ds *data.Dataset, holdOut int) *data.Dataset {
	cp := *ds
	cp.Domains = make([]*data.Domain, 0, len(ds.Domains)-1)
	for _, dom := range ds.Domains {
		if dom.ID == holdOut {
			continue
		}
		// Re-index so frameworks see a dense domain range.
		d2 := *dom
		d2.ID = len(cp.Domains)
		cp.Domains = append(cp.Domains, &d2)
	}
	return &cp
}
