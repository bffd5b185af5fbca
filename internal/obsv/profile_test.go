package obsv

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mamdr/internal/trace"
)

// TestProfilerRingBounded pins the ring contract: capture rounds keep
// producing profiles, but at most ringKeep files of each kind survive,
// and the survivors are the newest.
func TestProfilerRingBounded(t *testing.T) {
	dir := t.TempDir()
	// A 20ms interval samples the CPU for 10ms per round.
	p, err := NewProfiler(ProfileOptions{Dir: dir, Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = ringKeep + 3
	for i := 0; i < rounds; i++ {
		p.CaptureOnce(context.Background())
	}
	heaps, _ := filepath.Glob(filepath.Join(dir, "heap-*.pprof"))
	if len(heaps) != ringKeep {
		t.Fatalf("heap ring holds %d files, want %d: %v", len(heaps), ringKeep, heaps)
	}
	// Zero-padded sequence numbers: the survivors must be the newest.
	if want := fmt.Sprintf("heap-%06d.pprof", rounds); filepath.Base(heaps[len(heaps)-1]) != want {
		t.Errorf("newest heap profile is %s, want %s", heaps[len(heaps)-1], want)
	}
	cpus, _ := filepath.Glob(filepath.Join(dir, "cpu-*.pprof"))
	if len(cpus) > ringKeep {
		t.Fatalf("cpu ring holds %d files, want <= %d", len(cpus), ringKeep)
	}
	for _, f := range p.Ring() {
		st, err := os.Stat(f)
		if err != nil || st.Size() == 0 {
			t.Errorf("ring file %s empty or unreadable (%v)", f, err)
		}
	}
}

// TestProfilerRestartKeepsNewest: a profiler restarted into a used
// directory numbers its captures after the ones already there, so its
// own captures survive the prune and the oldest of the old run go.
func TestProfilerRestartKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	opts := ProfileOptions{Dir: dir, Interval: 20 * time.Millisecond}
	first, err := NewProfiler(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ringKeep+2; i++ {
		first.CaptureOnce(context.Background())
	}
	restarted, err := NewProfiler(opts)
	if err != nil {
		t.Fatal(err)
	}
	restarted.CaptureOnce(context.Background())
	restarted.CaptureOnce(context.Background())

	heaps, _ := filepath.Glob(filepath.Join(dir, "heap-*.pprof"))
	var got []string
	for _, h := range heaps {
		got = append(got, filepath.Base(h))
	}
	var want []string
	for seq := 5; seq <= ringKeep+4; seq++ {
		want = append(want, fmt.Sprintf("heap-%06d.pprof", seq))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("heap ring after a restart = %v, want %v", got, want)
	}
}

// TestProfilerDumpsWithFlightRecorder wires the profiler into a flight
// recorder's dump hook: triggering an anomaly must copy the profile
// ring next to the trace dump.
func TestProfilerDumpsWithFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfiler(ProfileOptions{Dir: filepath.Join(dir, "ring"), Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p.CaptureOnce(context.Background())

	fr := trace.NewFlightRecorder(8, filepath.Join(dir, "flight"))
	fr.SetOnDump(func(d trace.Dump) {
		p.DumpTo(filepath.Join(dir, "flight-"+d.Kind+"-profiles"))
	})
	fr.Trigger("nan_loss", map[string]any{"domain": "a"})

	dumped, _ := filepath.Glob(filepath.Join(dir, "flight-nan_loss-profiles", "*.pprof"))
	if len(dumped) == 0 {
		t.Fatal("anomaly dump carried no profiles")
	}
	if len(fr.Dumps()) != 1 {
		t.Fatalf("flight recorder dumps = %d, want 1", len(fr.Dumps()))
	}
}
