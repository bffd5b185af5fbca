// Command mamdr-bench is the repository's one measurement harness: six
// fixed workloads over the trainer and the serving plane, each reporting
// the end-to-end metrics of BENCHMARK.json and, on a separate traced
// run, the per-layer metrics. See README.md in this directory.
//
//	mamdr-bench -workload serve-point -seed 7 -seconds 10 -trace 0
//	    one workload in this process; the last line of standard output
//	    is one JSON object {correct, attempted, failed, metrics}
//	mamdr-bench -out BENCH.json [-repeat N] [-seed 7] [-seconds 10]
//	    every workload, each run in a fresh child process of this
//	    binary, untraced (N times) and traced (once)
//	mamdr-bench -compare old.json new.json
//	    one verdict per workload × end-to-end metric
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in-process (default: all, each in a child process)")
		seed     = flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		traced   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics from the benchmark's own spans")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
		quickRun = flag.Bool("quick", false, "shrunk sizes: a smoke test, not a measurement")
		out      = flag.String("out", "", "all-workloads mode: write the result file here")
		repeat   = flag.Int("repeat", 1, "all-workloads mode: untraced runs per workload; medians and quartiles are recorded")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		sz := pinned
		if *quickRun {
			sz = quick
		}
		o, err := runOne(w, sz, *seed, *seconds, *traced == 1, *traceOut, scratchRoot)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := emit(os.Stdout, w.name, *traced == 1, o); err != nil {
			fatal(err)
		}
	default:
		ok, err := runAll(*out, *seed, *seconds, *repeat, *quickRun)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mamdr-bench:", err)
	os.Exit(2)
}

// runOne runs a workload in this process. Its scratch files live under
// the working directory and are gone when it returns.
func runOne(w *workload, sz sizes, seed int64, seconds float64, traced bool, traceOut, scratch string) (*outcome, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return nil, err
	}
	e := &env{sz: sz, seed: seed, seconds: seconds, tmp: tmp}
	if traced {
		e.rec = newRecorder()
	}
	o, err := w.run(e)
	if err != nil {
		return nil, err
	}
	if traced && traceOut != "" {
		if err := e.rec.writeChrome(traceOut); err != nil {
			return nil, err
		}
	}
	return o, nil
}
