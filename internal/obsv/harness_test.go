package obsv

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mamdr/internal/trace"
)

// harnessFor registers the shared flags on a fresh flag set, parses
// args and builds the harness.
func harnessFor(t *testing.T, uses Uses, traced bool, args ...string) (*Harness, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	build := HarnessFlags(fs, uses)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return build(traced)
}

// TestHarnessFlagsPerProgram: every program gets -flight-dump;
// -trace/-trace-sample and -events only where it uses them.
func TestHarnessFlagsPerProgram(t *testing.T) {
	for _, tc := range []struct {
		uses Uses
		want string
	}{
		{Uses{Trace: true, Events: true}, "events flight-dump trace trace-sample"}, // mamdr-train
		{Uses{Trace: true}, "flight-dump trace trace-sample"},                      // mamdr-serve
		{Uses{Events: true}, "events flight-dump"},                                 // mamdr-obs
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		HarnessFlags(fs, tc.uses)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		sort.Strings(got)
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%+v registers %v, want %s", tc.uses, got, tc.want)
		}
	}
}

// TestHarnessTracerRule: a tracer exists when the program asks for one
// or -trace/-flight-dump does; a program that does not trace gets a
// standalone flight recorder only with -flight-dump.
func TestHarnessTracerRule(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name           string
		uses           Uses
		traced         bool
		args           []string
		tracer, flight bool
	}{
		{"untraced train", Uses{Trace: true, Events: true}, false, nil, false, false},
		{"train with /metrics", Uses{Trace: true, Events: true}, true, nil, true, true},
		{"train with -flight-dump", Uses{Trace: true, Events: true}, false, []string{"-flight-dump", filepath.Join(dir, "f")}, true, true},
		{"serve", Uses{Trace: true}, true, nil, true, true},
		{"obs", Uses{Events: true}, false, nil, false, false},
		{"obs with -flight-dump", Uses{Events: true}, false, []string{"-flight-dump", filepath.Join(dir, "o")}, false, true},
	} {
		h, err := harnessFor(t, tc.uses, tc.traced, tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (h.Tracer != nil) != tc.tracer || (h.Flight != nil) != tc.flight {
			t.Errorf("%s: tracer %v, flight recorder %v; want %v, %v", tc.name, h.Tracer != nil, h.Flight != nil, tc.tracer, tc.flight)
		}
		h.Close()
	}
}

// TestHarnessStreamsTrace: -trace puts each span on disk as it ends,
// before Close, and the flight recorder dumps beside the trace file by
// default.
func TestHarnessStreamsTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.trace.jsonl")
	h, err := harnessFor(t, Uses{Trace: true}, false, "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	_, s := trace.Start(h.Tracer.Context(context.Background()), "worker.inner_step")
	s.End()
	raw, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(raw), `"name":"worker.inner_step"`) || !strings.HasSuffix(string(raw), "\n") {
		t.Fatalf("trace file before Close = %q (%v), want the span's whole line", raw, err)
	}
	h.Flight.Trigger("nan_loss", nil)
	if d := h.Flight.Dumps(); len(d) != 1 || d[0].Path != path+".flight-nan_loss.trace.json" {
		t.Fatalf("dumps = %+v, want one beside the trace file", d)
	}
	h.Close()
}

// TestHarnessRefusesUnusableFlightDir: a -flight-dump prefix whose
// directory cannot exist fails at startup, not silently at the first
// anomaly.
func TestHarnessRefusesUnusableFlightDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := harnessFor(t, Uses{Events: true}, false, "-flight-dump", filepath.Join(file, "flight")); err == nil {
		t.Fatal("a -flight-dump prefix under a regular file was accepted")
	}
}

// TestMountPprof: the one profiling mechanism serves net/http/pprof's
// index, which lists the heap profile, and its other handlers on the
// mux it is mounted on.
func TestMountPprof(t *testing.T) {
	mux := http.NewServeMux()
	MountPprof(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for path, want := range map[string]string{"/debug/pprof/": "heap", "/debug/pprof/cmdline": ""} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %d, want 200 and a body with %q", path, resp.StatusCode, want)
		}
	}
}
