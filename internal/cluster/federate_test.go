package cluster

import (
	"fmt"
	"strings"
	"testing"

	"mamdr/internal/models"
	"mamdr/internal/obsv"
	"mamdr/internal/ps"
	"mamdr/internal/telemetry"
	"mamdr/internal/telemetry/promtest"
)

// TestFederatedSnapshotEqualsPerProcessRegistries is the federation
// acceptance test: train over real sockets against a multi-shard
// cluster where every shard server owns its own registry (one registry
// per process, exactly as a deployed fleet), scrape each shard through
// the gob-RPC MetricsSnapshot surface, and require the aggregated
// fleet view to equal — byte for byte in the rendered exposition — the
// aggregate computed directly from the in-process registries. Nothing
// may be lost, duplicated, or rounded on the wire.
func TestFederatedSnapshotEqualsPerProcessRegistries(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)

	serving := factory()
	tables := models.EmbeddingTablesOf(serving)
	plan := ps.NewPlan(ps.LayoutOf(serving.Parameters(), tables), 3, 7)
	servers := Shards(serving.Parameters(), plan, ShardOptions{OuterOpt: "adagrad", OuterLR: 0.1})

	// One registry per shard server — the per-process topology.
	var regs []*telemetry.Registry
	for _, reps := range servers {
		for _, srv := range reps {
			reg := telemetry.New()
			srv.SetMetrics(ps.NewMetrics(reg))
			regs = append(regs, reg)
		}
	}

	addrs, closeAll, err := ServeTCP(servers)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()

	router, err := Dial(plan, addrs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps.TrainWithStore(factory, serving, router, router, ds, deterministicOptions())

	// Scrape every shard over the same RPC sockets the workers used.
	var targets []obsv.Target
	for _, reps := range addrs {
		for _, a := range reps {
			targets = append(targets, obsv.Target{Role: "ps", Addr: "rpc://" + a})
		}
	}
	var scraped []telemetry.RegistrySnapshot
	for _, r := range (obsv.Scraper{}).ScrapeAll(targets) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		scraped = append(scraped, r.Snap)
	}
	if len(scraped) != len(regs) {
		t.Fatalf("scraped %d instances, want %d", len(scraped), len(regs))
	}

	// The federated per-instance exposition must satisfy the same
	// line-validation contract as a single process's /metrics.
	fleet, err := obsv.Federate(scraped)
	if err != nil {
		t.Fatal(err)
	}
	var fedText strings.Builder
	if err := fleet.WritePrometheus(&fedText); err != nil {
		t.Fatal(err)
	}
	promtest.Validate(t, fedText.String())

	// Aggregate the wire-scraped snapshots and the in-process
	// registries independently; the rendered totals must be identical.
	agg, err := obsv.Aggregate(scraped)
	if err != nil {
		t.Fatal(err)
	}
	var direct []telemetry.RegistrySnapshot
	for i, reg := range regs {
		s := reg.Snapshot()
		s.Role, s.Instance = "ps", fmt.Sprintf("direct-%d", i)
		direct = append(direct, s)
	}
	want, err := obsv.Aggregate(direct)
	if err != nil {
		t.Fatal(err)
	}
	var gotText, wantText strings.Builder
	if err := telemetry.WriteFamilies(&gotText, agg); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteFamilies(&wantText, want); err != nil {
		t.Fatal(err)
	}
	if gotText.String() != wantText.String() {
		t.Fatalf("federated aggregate diverges from per-process registries:\n--- scraped\n%s\n--- direct\n%s",
			gotText.String(), wantText.String())
	}
	if !strings.Contains(gotText.String(), "mamdr_ps_dense_pulls_total") {
		t.Fatal("aggregate carries no PS traffic; the training run was not observed")
	}

	// Spot-check the summation semantics on one counter: the fleet
	// total must equal the plain sum of the per-process values.
	var sum float64
	for _, reg := range regs {
		for _, fam := range reg.Snapshot().Families {
			if fam.Name == "mamdr_ps_dense_pulls_total" {
				for _, se := range fam.Series {
					sum += se.Value
				}
			}
		}
	}
	if sum == 0 {
		t.Fatal("no dense pulls recorded; the equality check is vacuous")
	}
	for _, fam := range agg {
		if fam.Name == "mamdr_ps_dense_pulls_total" {
			if got := fam.Series[0].Value; got != sum {
				t.Fatalf("aggregated dense pulls = %v, want the per-process sum %v", got, sum)
			}
		}
	}
}
