package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mamdr/internal/serve"
	"mamdr/internal/trace"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {99, 5}, {20, 1}, {21, 2}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two-point quartiles = %v %v %v", q1, q2, q3)
	}
}

// One stalled slice must not own the tail: four slices at 1 ms p99 and
// one at 500 ms give a median of 1 ms.
func TestSlicedTail(t *testing.T) {
	window := 5 * time.Second
	var ss []sample
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * window / 500
		lat := time.Millisecond
		if i >= 100 && i < 200 { // the second slice stalls
			lat = 500 * time.Millisecond
		}
		ss = append(ss, sample{at: at, lat: lat, ok: true})
	}
	ss = append(ss, sample{at: 0, lat: time.Hour, ok: false}) // failed: no latency
	if got := slicedTail(ss, window, 5, 99); got != 1 {
		t.Errorf("slicedTail = %v ms, want 1", got)
	}
	if got := percentile(latenciesMS(ss), 99); got != 500 {
		t.Errorf("plain p99 = %v ms, want 500", got)
	}
}

// A saturated closed loop reports its better quartile over slices: with
// eight of fifteen seconds slowed by the host, latency and rate are those
// of the undisturbed slices, where the plain rate is not.
func TestUndisturbedSlices(t *testing.T) {
	window := 15 * time.Second
	var ss []sample
	for at := time.Duration(0); at < window; {
		lat := time.Millisecond
		if at >= 4*time.Second && at < 12*time.Second { // the host's slow phase
			lat = 2 * time.Millisecond
		}
		ss = append(ss, sample{at: at, lat: lat, ok: true})
		at += lat
	}
	op, tail, rate := undisturbed(ss, window)
	if op != 1 || tail != 1 || rate != 1000 {
		t.Errorf("undisturbed = %v ms, %v ms, %v/s; want 1, 1, 1000", op, tail, rate)
	}
	if got := median(latenciesMS(ss)); got != 1 {
		// 7000 fast samples against 4000 slow ones: the median holds here,
		// the rate does not.
		t.Errorf("median = %v ms", got)
	}
	if got := float64(len(ss)) / window.Seconds(); got > 800 {
		t.Errorf("plain rate = %v/s, want it pulled down by the slow phase", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []interval{
		{id: 1, start: 0, end: 100 * ms},
		{id: 2, parent: 1, start: 10 * ms, end: 40 * ms},
		{id: 3, parent: 1, start: 30 * ms, end: 60 * ms},  // overlaps 2: counts once
		{id: 4, parent: 1, start: 90 * ms, end: 120 * ms}, // clipped to the parent
		{id: 5, parent: 2, start: 15 * ms, end: 20 * ms},  // grandchild: not the root's
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 40 * ms, 2: 25 * ms, 3: 30 * ms, 4: 30 * ms, 5: 5 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestRecorderSpansShareTraceAndExport(t *testing.T) {
	rec := newRecorder()
	ctx, root := rec.root("bench.epoch")
	_, child := trace.Start(ctx, "core.dn_epoch")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()
	if child.TraceID != root.TraceID || child.ParentID != root.ID {
		t.Errorf("child %+v does not hang under root %+v", child, root)
	}
	if c := rec.childCover("bench.epoch"); c <= 0.5 || c > 1 {
		t.Errorf("child cover = %v, want within (0.5, 1]", c)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil || len(events) != 2 {
		t.Fatalf("chrome trace: %d events, err %v", len(events), err)
	}
	// A nil recorder is the untraced run: spans are no-ops.
	var off *recorder
	_, sp := off.root("x")
	sp.End()
	off.time("x", 2, func() {})
	if off.seconds("x") != nil {
		t.Error("nil recorder recorded spans")
	}
}

func TestRequestStreamFollowsSeed(t *testing.T) {
	sh := shape{pairs: 3, domains: 50}
	a := buildPool(7, 200, sh, 1000, 500)
	b := buildPool(7, 200, sh, 1000, 500)
	c := buildPool(8, 200, sh, 1000, 500)
	same, differ := true, false
	for i := range a {
		same = same && bytes.Equal(a[i].body, b[i].body)
		differ = differ || !bytes.Equal(a[i].body, c[i].body)
	}
	if !same {
		t.Error("equal seeds gave different request streams")
	}
	if !differ {
		t.Error("different seeds gave the same request stream")
	}
	// Zipf(1.0): the head domain is drawn far more often than the tail.
	counts := make([]int, sh.domains)
	for _, r := range buildPool(9, 5000, sh, 1000, 500) {
		counts[r.domain]++
	}
	if counts[0] < 5*counts[sh.domains-1] || counts[0] < counts[1] {
		t.Errorf("domain mix is not Zipf: head %d, second %d, tail %d", counts[0], counts[1], counts[sh.domains-1])
	}
	rank := buildPool(7, 10, shape{pairs: 4, oneUser: true, domains: 2}, 1000, 500)
	for _, r := range rank {
		for _, u := range r.users {
			if u != r.users[0] {
				t.Fatalf("oneUser request mixes users: %v", r.users)
			}
		}
	}
}

// fakeServer answers /predict like the real handler would for one pair,
// stalling once at the stall-th request.
func fakeServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(serve.PredictResponse{Probabilities: []float64{0.5}})
	}))
}

// The open loop times each request from when it was due: a server that
// stalls once inflates the requests scheduled behind the stall and the
// late ratio, although it answers each of them at once.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	pools := [][]request{buildPool(1, 16, shape{pairs: 1, domains: 4}, 10, 10)}
	ls := loadSpec{window: 250 * time.Millisecond, rate: 200}

	steady := fakeServer(-1, 0)
	defer steady.Close()
	base := runLoad(steady.URL, pools, ls)
	if base.failed != 0 || len(base.predicts) != 50 {
		t.Fatalf("steady run: %d requests, %d failed (%v)", len(base.predicts), base.failed, base.errs)
	}

	stalled := fakeServer(10, 100*time.Millisecond)
	defer stalled.Close()
	res := runLoad(stalled.URL, pools, ls)
	if res.failed != 0 || len(res.predicts) != 50 {
		t.Fatalf("stalled run: %d requests, %d failed (%v)", len(res.predicts), res.failed, res.errs)
	}
	// Requests 10..~29 were due during the stall.
	if res.late < 12 {
		t.Errorf("late sends = %d, want the requests queued behind the stall", res.late)
	}
	if res.late <= base.late+8 {
		t.Errorf("stall did not raise lateness: %d vs %d", res.late, base.late)
	}
	var behind time.Duration
	for _, s := range res.predicts {
		if s.at > 60*time.Millisecond && s.at < 100*time.Millisecond && s.lat > behind {
			behind = s.lat
		}
	}
	if behind < 50*time.Millisecond {
		t.Errorf("a request due mid-stall was timed at %v: not from its due time", behind)
	}
	if p := percentile(latenciesMS(base.predicts), 50); p > 20 {
		t.Errorf("steady p50 = %v ms", p)
	}
}

func TestCheckScores(t *testing.T) {
	r := &request{users: []int{1, 2}, items: []int{3, 4}}
	if err := checkScores(r, []float64{0.2, 0.7}, 0); err != nil {
		t.Error(err)
	}
	for name, probs := range map[string][]float64{
		"short": {0.2}, "one": {0.2, 1}, "zero": {0, 0.5}, "nan": {math.NaN(), 0.5},
	} {
		if checkScores(r, probs, 0) == nil {
			t.Errorf("%s: accepted %v", name, probs)
		}
	}
	r.want = [][]float64{{0.2, 0.7}, {0.4, 0.4}}
	if err := checkScores(r, []float64{0.4, 0.4}, 0); err != nil {
		t.Errorf("second published state rejected: %v", err)
	}
	if checkScores(r, []float64{0.2, 0.7000001}, 0) == nil {
		t.Error("bit-for-bit check accepted a different score")
	}
	if err := checkScores(r, []float64{0.21, 0.69}, 0.02); err != nil {
		t.Errorf("within tolerance rejected: %v", err)
	}
}

func writeResults(t *testing.T, dir, name string, mutate func(*resultFile)) string {
	t.Helper()
	rf := resultFile{GitSHA: name, Workloads: map[string]workloadResult{}}
	for _, w := range workloads {
		wr := workloadResult{Correct: true, Attempted: 100, EndToEnd: map[string]summary{}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = summarize(d.unit, []float64{99, 100, 100, 100, 101})
		}
		rf.Workloads[w.name] = wr
	}
	if mutate != nil {
		mutate(&rf)
	}
	b, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	old := writeResults(t, dir, "old", nil)
	set := func(rf *resultFile, w, m string, vals ...float64) {
		rf.Workloads[w].EndToEnd[m] = summarize("x", vals)
	}
	cur := writeResults(t, dir, "new", func(rf *resultFile) {
		set(rf, "train-head", "op_ms", 79, 80, 80, 80, 81)              // lower is better: improved
		set(rf, "train-head", "throughput_per_s", 69, 70, 70, 70, 71)   // higher is better: regressed
		set(rf, "train-tail", "op_ms", 104, 105, 105, 105, 106)         // inside the bound: unchanged
		set(rf, "serve-rank", "op_tail_ms", 60, 90, 100, 140, 200)      // spread over the bound: unresolved
		set(rf, "serve-point", "peak_rss_mb", 129, 130, 130, 130, 131)  // +30% > 20%: regressed
		set(rf, "serve-live", "throughput_per_s", 89, 90, 91, 91.5, 92) // −9% within 25%: unchanged
	})
	var out bytes.Buffer
	bad, err := compareFiles(&out, old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Error("a regression must make -compare fail")
	}
	row := func(w, m string) string {
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == w && f[1] == m {
				return line
			}
		}
		t.Fatalf("no row for %s %s in\n%s", w, m, out.String())
		return ""
	}
	for _, c := range []struct{ w, m, verdict string }{
		{"train-head", "op_ms", "improved"},
		{"train-head", "throughput_per_s", "regressed"},
		{"train-tail", "op_ms", "unchanged"},
		{"serve-rank", "op_tail_ms", "unresolved"},
		{"serve-point", "peak_rss_mb", "regressed"},
		{"serve-live", "throughput_per_s", "unchanged"},
		{"train-ps", "setup_s", "unchanged"},
	} {
		if line := row(c.w, c.m); !strings.Contains(line, " "+c.verdict+" ") {
			t.Errorf("%s %s: want %s, got %q", c.w, c.m, c.verdict, line)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(out.String()), `"claim": null`) {
		t.Error("comparison must end with \"claim\": null")
	}

	// No regression, but more failed operations: still a failure.
	failing := writeResults(t, dir, "failing", func(rf *resultFile) {
		w := rf.Workloads["serve-live"]
		w.Failed = 1
		rf.Workloads["serve-live"] = w
	})
	out.Reset()
	if bad, err = compareFiles(&out, old, failing); err != nil || !bad {
		t.Errorf("higher fail_ratio: bad=%v err=%v", bad, err)
	}
	out.Reset()
	if bad, err = compareFiles(&out, old, old); err != nil || bad {
		t.Errorf("a file against itself: bad=%v err=%v", bad, err)
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program prints, with the same units and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, program default %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(doc.EndToEnd), len(endToEnd), len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, d)
		}
	}
}

// Every workload runs end to end at the shrunk sizes, untraced and
// traced, prints every metric and checks its outputs, so none rots.
func TestQuickPassOverAllWorkloads(t *testing.T) {
	scratch := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := runOne(&w, quick, 3, 0.05, traced, "", scratch)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := emit(&out, w.name, traced, o); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s: last line is no result object: %v", w.name, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(defs))
			}
			if !traced {
				for _, d := range defs {
					if rep.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, rep.Metrics[d.name].Value)
					}
				}
			}
		}
	}
	if left, _ := os.ReadDir(scratch); len(left) != 0 {
		t.Errorf("runs left %d entries in the scratch directory", len(left))
	}
}
