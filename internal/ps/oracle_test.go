package ps

import (
	"fmt"
	"testing"

	"mamdr/internal/core"
	"mamdr/internal/framework"
	"mamdr/internal/models"
)

// TestOneWorkerMatchesFitDN is the DN half of the differential oracle
// between the two training loops: one worker over one shard with
// deferred pushes is Algorithm 1 exactly as core's Fit runs it — the
// same epoch RNG (shuffles, batch orders, dropout masks), the same
// Stepper, and an outer rule that is the same expression up to an exact
// negation (the server's θ + β(Θ̃ − θ) against Fit's θ − β(θ − Θ̃)). So
// θ_S must agree float for float, with no tolerance. DR cadence differs
// between the two paths and is out of this test's scope.
func TestOneWorkerMatchesFitDN(t *testing.T) {
	ds := testDataset(t)
	for _, dropout := range []float64{0, 0.2} {
		factory := dropoutFactory(ds, dropout)
		if len(models.EmbeddingTablesOf(factory())) == 0 {
			t.Fatal("the oracle needs learned embedding tables: the row protocol is half of what it compares")
		}
		const epochs, seed = 4, 9
		want := framework.MustNew("dn").Fit(factory(), ds, framework.Config{
			Epochs: epochs, BatchSize: 32, Seed: seed,
			InnerOpt: "sgd", LR: 0.1, OuterOpt: "sgd", OuterLR: 0.5,
		}).(*core.State)
		got := Train(factory, ds, Options{
			Workers: 1, Shards: 1, CacheEnabled: true, SyncPush: true,
			Epochs: epochs, BatchSize: 32, Seed: seed,
			InnerOpt: "sgd", InnerLR: 0.1, OuterOpt: "sgd", OuterLR: 0.5,
		})
		requireSameVector(t, fmt.Sprintf("θ_S at dropout %g (Fit vs 1 worker · 1 shard)", dropout), want.Shared, got.State.Shared)
	}
}
