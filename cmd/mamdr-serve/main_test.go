package main

import (
	"strings"
	"testing"

	"mamdr"
	"mamdr/internal/cluster"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/ps"
)

// TestPSAddrsServesClusterSharedWithZeroSpecific: under -ps-addrs the
// served state is the cluster's θ_S with every θ_i zero — each domain
// served with the shared parameters — not θ_i that a local fit trained
// against some other θ_S.
func TestPSAddrsServesClusterSharedWithZeroSpecific(t *testing.T) {
	ds := mamdr.GenerateDataset(mamdr.DatasetSpec{Preset: "amazon-6", TotalSamples: 1500, Seed: 3})
	const model, embDim, seed = "mlp", 8, int64(3)

	// The cluster holds a θ_S that no fresh model of this config has.
	hosted := models.MustNew(model, models.Config{Dataset: ds, EmbDim: embDim, Seed: seed})
	for _, p := range hosted.Parameters() {
		for i := range p.Data {
			p.Data[i] += 0.25
		}
	}
	want := paramvec.Snapshot(hosted.Parameters())
	plan := ps.NewPlan(ps.LayoutOf(hosted.Parameters(), models.EmbeddingTablesOf(hosted)), 2, seed)
	addrs, closeAll, err := cluster.ServeTCP(cluster.Shards(hosted.Parameters(), plan, cluster.ShardOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	var shards []string
	for _, reps := range addrs {
		shards = append(shards, strings.Join(reps, "|"))
	}

	st, err := startState(ds, model, embDim, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dialUpstream(st, strings.Join(shards, ","), seed); err != nil {
		t.Fatal(err)
	}
	for ti := range want {
		for j, v := range want[ti] {
			if st.Shared[ti][j] != v {
				t.Fatalf("θ_S tensor %d[%d] = %g, the cluster holds %g", ti, j, st.Shared[ti][j], v)
			}
		}
	}
	if len(st.Specific) != ds.NumDomains() {
		t.Fatalf("%d specific vectors for %d domains", len(st.Specific), ds.NumDomains())
	}
	for d, v := range st.Specific {
		for ti := range v {
			for j, x := range v[ti] {
				if x != 0 {
					t.Fatalf("domain %d: θ_i tensor %d[%d] = %g, want 0", d, ti, j, x)
				}
			}
		}
	}
}
