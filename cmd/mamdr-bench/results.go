package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const (
	defaultSeed    = 12
	defaultSeconds = 15
	// scratchRoot is where a run keeps checkpoints and PS state: inside
	// the working directory, next to the build output.
	scratchRoot = ".bench_build/scratch"
)

// summary is one metric over the repeated runs of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	q1, q2, q3 := quartiles(values)
	return summary{Unit: unit, Median: q2, Q1: q1, Q3: q3, Values: values}
}

// workloadResult is one workload's entry of the result file.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	GitSHA     string                    `json:"git_sha"`
	CPU        string                    `json:"cpu"`
	NProc      int                       `json:"nproc"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	GoVersion  string                    `json:"go_version"`
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Repeat     int                       `json:"repeat"`
	Workloads  map[string]workloadResult `json:"workloads"`
	// Claim is null: a file of measurements claims no gain.
	Claim *string `json:"claim"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild runs one workload in a fresh process of this binary, so that
// peak_rss_mb is the workload's own, and parses the last line it prints.
func runChild(w io.Writer, name string, seed int64, seconds float64, traced, quickRun bool) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace}
	if quickRun {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to end
	if err != nil {
		return report{}, fmt.Errorf("%s (trace %s): %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	w.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Fprintln(w)
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("%s: last line is no result object: %w", name, err)
	}
	return rep, nil
}

// runAll runs every workload repeat times untraced and once traced and
// writes the result file. It reports whether every run was correct.
func runAll(out string, seed int64, seconds float64, repeat int, quickRun bool) (bool, error) {
	if repeat < 1 {
		repeat = 1
	}
	rf := resultFile{
		GitSHA: gitSHA(), CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed, Seconds: seconds, Repeat: repeat,
		Workloads: map[string]workloadResult{},
	}
	ok := true
	for _, w := range workloads {
		wr := workloadResult{Correct: true, EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
		values := map[string][]float64{}
		for i := 0; i < repeat; i++ {
			rep, err := runChild(os.Stdout, w.name, seed, seconds, false, quickRun)
			if err != nil {
				return false, err
			}
			wr.Correct = wr.Correct && rep.Correct
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			for _, d := range endToEnd {
				values[d.name] = append(values[d.name], rep.Metrics[d.name].Value)
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = summarize(d.unit, values[d.name])
		}
		rep, err := runChild(os.Stdout, w.name, seed, seconds, true, quickRun)
		if err != nil {
			return false, err
		}
		wr.Correct = wr.Correct && rep.Correct
		for _, d := range perLayer {
			wr.PerLayer[d.name] = summarize(d.unit, []float64{rep.Metrics[d.name].Value})
		}
		rf.Workloads[w.name] = wr
		ok = ok && wr.Correct
	}
	fmt.Println(`"claim": null`)
	if out == "" {
		return ok, nil
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(out, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict compares one metric's old and new runs. A metric whose
// run-to-run spread (interquartile distance over the median, either
// side) exceeds its bound cannot be resolved; otherwise it regressed
// when the median worsened by more than the bound, improved when it got
// better by more than both spreads, and is unchanged in between.
func verdict(d metricDef, old, cur summary) (v string, change float64) {
	if old.Median == 0 {
		return "unresolved", 0
	}
	change = (cur.Median - old.Median) / old.Median
	worse := change
	if d.better == "higher" {
		worse = -change
	}
	so, sn := spread(old.Values), spread(cur.Values)
	noise := so
	if sn > noise {
		noise = sn
	}
	switch {
	case noise > d.bound:
		return "unresolved", change
	case worse > d.bound:
		return "regressed", change
	case -worse > noise && -worse > 0:
		return "improved", change
	default:
		return "unchanged", change
	}
}

// compareFiles prints one row per workload × end-to-end metric, every
// ratio with its base, and reports whether anything regressed or more
// operations failed.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old %s (%s)  new %s (%s)\n", oldPath, old.GitSHA, newPath, cur.GitSHA)
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	bad := false
	for _, wl := range workloads {
		ow, haveOld := old.Workloads[wl.name]
		nw, haveNew := cur.Workloads[wl.name]
		if !haveOld || !haveNew {
			fmt.Fprintf(w, "%-12s missing from one file\n", wl.name)
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.name], nw.EndToEnd[d.name]
			v, change := verdict(d, o, n)
			if v == "regressed" {
				bad = true
			}
			fmt.Fprintf(w, "%-12s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%  %s (of %g %s)\n",
				wl.name, d.name, o.Median, n.Median, 100*change, 100*d.bound, v, o.Median, d.unit)
		}
		of, nf := failRatio(ow), failRatio(nw)
		fv := "unchanged"
		if nf > of {
			fv, bad = "regressed", true
		}
		fmt.Fprintf(w, "%-12s %-18s %14.6g %14.6g %25s  %s (%d of %d, %d of %d)\n",
			wl.name, "fail_ratio", of, nf, "", fv, ow.Failed, ow.Attempted, nw.Failed, nw.Attempted)
	}
	fmt.Fprintln(w, `"claim": null`)
	return bad, nil
}

func failRatio(w workloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
