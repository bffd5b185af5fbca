// This example runs the paper's PS-Worker architecture (Section IV-E)
// over real TCP sockets: parameter-server shards serve slices of the
// model via net/rpc, workers in this process train Domain Negotiation
// inner loops against them through a scatter-gather router, and the
// embedding static/dynamic cache's effect on synchronization traffic is
// measured — the production concern the paper's cache design addresses.
//
//	distributed            # self-host 1 PS over loopback (the default)
//	distributed -shards 3  # self-host a 3-shard PS cluster over loopback
//
// To host shard slots in one process and train against them from
// another, use mamdr-train -ps-serve (a bare host) and mamdr-train
// -ps-addrs (which installs its run's shards on the host).
package main

import (
	"flag"
	"fmt"
	"log"

	"mamdr/internal/cluster"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/ps"
	"mamdr/internal/synth"
)

func main() {
	log.SetFlags(0)
	var (
		shards  = flag.Int("shards", 1, "self-host this many parameter-server shards over loopback TCP")
		workers = flag.Int("workers", 4, "worker count")
		epochs  = flag.Int("epochs", 10, "training epochs")
	)
	flag.Parse()

	ds := synth.Generate(synth.Amazon6(8000, 19))
	replica := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 8, Hidden: []int{32, 16}, Seed: 5})
	}
	m := replica()
	layout := ps.LayoutOf(m.Parameters(), models.EmbeddingTablesOf(m))

	// Each run gets a fresh shard cluster over loopback TCP, so the
	// cache on/off comparison starts from identical state.
	plan := ps.NewPlan(layout, *shards, 7)
	run := func(cache bool) (float64, ps.Counters) {
		dep, err := cluster.Deploy(replica().Parameters(), plan, cluster.ShardOptions{OuterOpt: "sgd", OuterLR: 0.5},
			cluster.Options{}, cluster.Placement{Loopback: true})
		if err != nil {
			log.Fatal(err)
		}
		defer dep.Close()
		opts := ps.Options{Workers: *workers, Epochs: *epochs, Seed: 9, CacheEnabled: cache, UseDR: true}
		res := ps.TrainWithStore(replica, replica(), dep.Router, dep, ds, opts)
		return framework.MeanAUC(res.State, ds, data.Test), res.Counters
	}

	fmt.Printf("training %d workers against %d PS shard(s) over TCP (net/rpc, %s)...\n",
		*workers, *shards, plan.String())
	aucOn, cOn := run(true)
	fmt.Printf("\nwith embedding cache:    mean test AUC %.4f\n", aucOn)
	fmt.Printf("  traffic: %d floats, %d row pulls, %d pushes\n", cOn.FloatsMoved, cOn.RowPulls, cOn.DensePushes)

	aucOff, cOff := run(false)
	fmt.Printf("\nwithout embedding cache: mean test AUC %.4f\n", aucOff)
	fmt.Printf("  traffic: %d floats, %d row pulls, %d pushes\n", cOff.FloatsMoved, cOff.RowPulls, cOff.DensePushes)

	fmt.Printf("\nthe static/dynamic cache cuts synchronization traffic by %.1fx\n",
		float64(cOff.FloatsMoved)/float64(cOn.FloatsMoved))
	fmt.Println("while querying the latest embeddings from the PS on miss bounds staleness.")
}
