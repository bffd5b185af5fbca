// This example runs the paper's PS-Worker architecture (Section IV-E)
// over real TCP sockets: parameter-server shards serve slices of the
// model via net/rpc, workers in this process train Domain Negotiation
// inner loops against them through a scatter-gather router, and the
// embedding static/dynamic cache's effect on synchronization traffic is
// measured — the production concern the paper's cache design addresses.
//
// Modes:
//
//	distributed                         # self-host 1 PS over loopback (the default)
//	distributed -shards 3               # self-host a 3-shard PS cluster over loopback
//	distributed -serve 127.0.0.1:7001,127.0.0.1:7002     # host the shard servers and block
//	distributed -ps-addrs 127.0.0.1:7001,127.0.0.1:7002  # train against those servers
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

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
		serve   = flag.String("serve", "", "host the shard servers on these comma-separated addresses and block (replicas of one shard joined with '|')")
		psAddrs = flag.String("ps-addrs", "", "train against already-running shard servers at these comma-separated addresses instead of self-hosting")
		workers = flag.Int("workers", 4, "worker count")
		epochs  = flag.Int("epochs", 10, "training epochs")
	)
	flag.Parse()

	ds := synth.Generate(synth.Amazon6(8000, 19))
	replica := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 8, Hidden: []int{32, 16}, Seed: 5})
	}
	serving := replica()
	tables := models.EmbeddingTablesOf(serving)
	layout := ps.LayoutOf(serving.Parameters(), tables)

	// Serve mode: this process hosts the shard servers, a training
	// process connects with -ps-addrs. Both derive the same partition
	// plan from the shared model config, so the slices line up.
	if *serve != "" {
		groups := cluster.ParseAddrs(*serve)
		if len(groups) == 0 {
			log.Fatal("-serve: no addresses given")
		}
		plan := ps.NewPlan(layout, len(groups), 7)
		servers := cluster.Shards(serving.Parameters(), plan, cluster.ShardOptions{Replicas: len(groups[0])})
		log.Printf("serving %s", plan.String())
		for sh, g := range groups {
			for rep, addr := range g {
				lis, err := net.Listen("tcp", addr)
				if err != nil {
					log.Fatal(err)
				}
				log.Printf("shard %d replica %d on %s (%d elements)", sh, rep, lis.Addr(), plan.Elements(sh))
				go ps.Serve(servers[sh][rep], lis)
			}
		}
		select {}
	}

	opts := func(cache bool) ps.Options {
		return ps.Options{Workers: *workers, Epochs: *epochs, Seed: 9, CacheEnabled: cache, UseDR: true}
	}

	// Remote mode: dial an already-running cluster and do one cached
	// training run against it. (No cache on/off comparison here — the
	// remote servers keep their trained state, so a second run would not
	// start from the same parameters.)
	if *psAddrs != "" {
		groups := cluster.ParseAddrs(*psAddrs)
		if len(groups) == 0 {
			log.Fatal("-ps-addrs: no addresses given")
		}
		plan := ps.NewPlan(layout, len(groups), 7)
		router, err := cluster.Dial(plan, groups, nil, cluster.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("training %d workers against %d remote PS shard(s)...\n", *workers, len(groups))
		res := ps.TrainWithStore(replica, serving, router, router, ds, opts(true))
		c := res.Counters
		fmt.Printf("\nmean test AUC %.4f\n", framework.MeanAUC(res.State, ds, data.Test))
		fmt.Printf("traffic: %d floats, %d row pulls, %d pushes\n", c.FloatsMoved, c.RowPulls, c.DensePushes)
		return
	}

	// Self-host mode: each run gets a fresh shard cluster over loopback
	// TCP, so the cache on/off comparison starts from identical state.
	plan := ps.NewPlan(layout, *shards, 7)
	run := func(cache bool) (float64, ps.Counters) {
		servers := cluster.Shards(replica().Parameters(), plan, cluster.ShardOptions{OuterOpt: "sgd", OuterLR: 0.5})
		addrs, closeAll, err := cluster.ServeTCP(servers)
		if err != nil {
			log.Fatal(err)
		}
		defer closeAll()
		router, err := cluster.Dial(plan, addrs, nil, cluster.Options{})
		if err != nil {
			log.Fatal(err)
		}
		res := ps.TrainWithStore(replica, replica(), router, router, ds, opts(cache))
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
