// Command datagen writes one synthetic MDR benchmark dataset as a JSON
// file. Its statistics tables (the equivalents of the paper's Tables
// I-IV) are `experiments -run table1,table2-4`.
//
// Usage:
//
//	datagen -preset taobao-10 -samples 20000 -seed 7 -out taobao10.json
//	datagen -preset amazon-6 -imbalance 1.15 -out skewed.json   # Zipf-skewed domain sizes
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"mamdr/internal/data"
	"mamdr/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")

	var (
		preset  = flag.String("preset", "taobao-10", "benchmark preset: amazon-6, amazon-13, taobao-10, taobao-20, taobao-30, taobao-online")
		samples = flag.Int("samples", 20000, "total interaction budget for the dataset")
		seed    = flag.Int64("seed", 1, "generation seed")
		out     = flag.String("out", "", "output path of the JSON dataset file")
		// -imbalance 1.15 on a uniform 6-domain preset approximates the
		// real Amazon-6 head/tail sample ratio (~7.8x, Table II).
		imbalance = flag.Float64("imbalance", 0, "Zipf exponent s > 0: re-skew the preset's sample budget so domain sizes follow 1/rank^s (0 = keep the preset's profile)")
	)
	flag.Parse()

	if *out == "" {
		log.Fatal("missing -out path")
	}
	presets := synth.Presets(*samples, *seed)
	cfg, ok := presets[*preset]
	if !ok {
		log.Fatalf("unknown preset %q (have %s)", *preset, strings.Join(presetNames(presets), ", "))
	}
	if *imbalance > 0 {
		cfg = synth.WithZipfImbalance(cfg, *imbalance)
	}
	ds := synth.Generate(cfg)
	if err := ds.Validate(); err != nil {
		log.Fatalf("generated dataset failed validation: %v", err)
	}
	if err := data.SaveJSON(ds, *out); err != nil {
		log.Fatal(err)
	}
	sum, err := data.FileSHA256(*out) // what a -data checkpoint records and mamdr-serve logs
	if err != nil {
		log.Fatal(err)
	}
	o := ds.Overall()
	fmt.Printf("wrote %s: %d domains, %d users, %d items, %d/%d/%d train/val/test, sha256 %s\n",
		*out, o.NumDomains, o.NumUsers, o.NumItems, o.TrainSamples, o.ValSamples, o.TestSamples, sum)
}

func presetNames(m map[string]synth.Config) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	return names
}
