// Quickstart: generate a Taobao-10 benchmark equivalent, train an MLP
// with the MAMDR framework (Domain Negotiation + Domain Regularization),
// and report per-domain AUC against plain alternate training.
package main

import (
	"fmt"
	"log"

	"mamdr"
)

func main() {
	log.SetFlags(0)

	// 1. A multi-domain dataset: 10 Taobao theme domains with the
	// paper's imbalance profile and CTR ratios, at laptop scale.
	// The spec names the dataset and the model a run trains on; every
	// checkpoint of the run records it.
	spec := mamdr.Spec{Preset: "taobao-10", Samples: 8000, Seed: 7, Model: "mlp", EmbDim: 8}
	ds, err := mamdr.SpecDataset(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d domains, %d users, %d items, %d interactions\n\n",
		ds.Name, ds.NumDomains(), ds.NumUsers, ds.NumItems, ds.TotalSamples())

	// 2. Train the same MLP structure two ways.
	cfg := mamdr.Config{Spec: spec, Epochs: 12, Seed: 7}
	baseline, err := mamdr.Train(ds, "alternate", cfg)
	if err != nil {
		log.Fatal(err)
	}
	ours, err := mamdr.Train(ds, "mamdr", cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compare per-domain test AUC.
	fmt.Println("domain                test AUC: alternate -> MAMDR")
	for d, dom := range ds.Domains {
		marker := ""
		if ours.TestAUC[d] > baseline.TestAUC[d] {
			marker = "  (+)"
		}
		fmt.Printf("%-20s  %.4f -> %.4f%s\n", dom.Name, baseline.TestAUC[d], ours.TestAUC[d], marker)
	}
	fmt.Printf("\nMEAN                  %.4f -> %.4f\n", baseline.MeanTestAUC, ours.MeanTestAUC)
}
