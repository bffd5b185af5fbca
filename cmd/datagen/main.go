// Command datagen generates the synthetic MDR benchmark datasets and
// prints their statistics tables (the equivalents of the paper's Tables
// I-IV for the generated data).
//
// Usage:
//
//	datagen -preset taobao-10 -samples 20000 -seed 7 -out taobao10.json
//	datagen -preset amazon-6 -imbalance 1.15 -out skewed.json   # Zipf-skewed domain sizes
//	datagen -stats -samples 20000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

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
		stats   = flag.Bool("stats", false, "print Table I-IV style statistics for all presets and exit")
		// -imbalance 1.15 on a uniform 6-domain preset approximates the
		// real Amazon-6 head/tail sample ratio (~7.8x, Table II).
		imbalance = flag.Float64("imbalance", 0, "Zipf exponent s > 0: re-skew the preset's sample budget so domain sizes follow 1/rank^s (0 = keep the preset's profile)")
	)
	flag.Parse()

	if *stats {
		printStats(*samples, *seed)
		return
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
	if *out == "" {
		log.Fatal("missing -out path (or use -stats)")
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

func printStats(samples int, seed int64) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Dataset\t#Domain\t#User\t#Item\t#Train\t#Val\t#Test\tSample/Domain")
	order := []string{"amazon-6", "amazon-13", "taobao-10", "taobao-20", "taobao-30", "taobao-online"}
	presets := synth.Presets(samples, seed)
	var generated []*data.Dataset
	for _, name := range order {
		ds := synth.Generate(presets[name])
		generated = append(generated, ds)
		o := ds.Overall()
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			o.Name, o.NumDomains, o.NumUsers, o.NumItems,
			o.TrainSamples, o.ValSamples, o.TestSamples, o.SamplesPerDomain)
	}
	w.Flush()

	for _, ds := range generated {
		if ds.Name == "Taobao-online" {
			continue // 20+ rows of Zipf tail add little
		}
		fmt.Printf("\n%s per-domain statistics:\n", ds.Name)
		dw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(dw, "Domain\t#Samples\tPercentage\tCTR Ratio")
		for _, st := range ds.Stats() {
			fmt.Fprintf(dw, "%s\t%d\t%.2f%%\t%.2f\n", st.Name, st.Samples, st.Percentage, st.CTRRatio)
		}
		dw.Flush()
	}
}
