// Command experiments regenerates the MAMDR paper's evaluation tables
// and figures (Tables I-X, Figures 8-9) plus this repository's extra
// design-choice ablations, writing them as markdown.
//
// Usage:
//
//	experiments -run all -scale quick -out results.md
//	experiments -run table5,table6 -scale full
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mamdr/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		run   = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale = flag.String("scale", "quick", "experiment scale: tiny, quick, full")
		out   = flag.String("out", "", "write markdown to this file (default stdout)")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.Order {
			fmt.Println(id)
		}
		return
	}

	var s exp.Scale
	switch *scale {
	case "tiny":
		s = exp.Tiny
	case "quick":
		s = exp.Quick
	case "full":
		s = exp.Full
	default:
		log.Fatalf("unknown scale %q (tiny, quick, full)", *scale)
	}

	ids := exp.Order
	if *run != "all" {
		ids = strings.Split(*run, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if _, ok := exp.Registry[ids[i]]; !ok { // before any training
				log.Fatalf("unknown experiment %q (have %s)", ids[i], strings.Join(exp.Names(), ", "))
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# MAMDR experiment results (scale=%s: %d samples/benchmark, %d epochs, seed %d)\n\n",
		*scale, s.TotalSamples, s.Epochs, s.Seed)
	// One session for the whole run: a fit that several tables show
	// (Table VII is Table VI's Amazon-6 column, Table IX is Table VIII's
	// runs) trains once.
	session := exp.NewSession(s)
	total := time.Now()
	for _, id := range ids {
		start := time.Now()
		tables, err := session.Run(id)
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range tables {
			b.WriteString(t.Markdown())
			b.WriteString("\n")
		}
		elapsed := time.Since(start).Round(time.Second)
		fmt.Fprintf(os.Stderr, "experiments: %s done in %s\n", id, elapsed)
		fmt.Fprintf(&b, "_%s completed in %s._\n\n", id, elapsed)
	}
	fmt.Fprintf(&b, "_Total wall time: %s._\n", time.Since(total).Round(time.Second))

	if *out == "" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", *out)
}
