package obsv

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ProfileOptions configures a Profiler.
type ProfileOptions struct {
	// Dir receives the profile ring files (created if missing).
	Dir string
	// Interval between capture rounds. Default 30s. Each CPU profile
	// samples for min(2s, Interval/2).
	Interval time.Duration
}

// ringKeep bounds the ring: at most ringKeep files of each kind survive.
const ringKeep = 8

// Profiler periodically captures pprof CPU and heap profiles into a
// bounded on-disk ring, so "what was the process doing just before the
// alert" is answerable after the fact without having had pprof
// attached in advance. DumpTo copies the ring next to a flight-record
// dump; wire it via trace.FlightRecorder.SetOnDump.
//
// CPU profiling is exclusive per process: if something else (a test
// -cpuprofile, an explicit pprof session) holds the profiler, the
// round skips CPU and still captures heap.
type Profiler struct {
	opts ProfileOptions
	seq  atomic.Int64 // the last capture round's number
}

// NewProfiler builds a profiler; the directory is created eagerly so
// misconfiguration surfaces at startup, not at the first anomaly. Its
// sequence starts after the highest capture already in the directory,
// so a restarted process's captures are the newest of the ring rather
// than the first ones pruned.
func NewProfiler(opts ProfileOptions) (*Profiler, error) {
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("obsv: profiler needs a directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obsv: profile dir: %w", err)
	}
	p := &Profiler{opts: opts}
	for _, f := range p.Ring() { // cpu-NNNNNN.pprof, heap-NNNNNN.pprof
		name := strings.TrimSuffix(filepath.Base(f), ".pprof")
		if seq, err := strconv.ParseInt(name[strings.IndexByte(name, '-')+1:], 10, 64); err == nil && seq > p.seq.Load() {
			p.seq.Store(seq)
		}
	}
	return p, nil
}

// Run captures profiles until ctx is done. Errors are swallowed after
// the first capture round — the profiler must never take down the
// process it is observing.
func (p *Profiler) Run(ctx context.Context) {
	ticker := time.NewTicker(p.opts.Interval)
	defer ticker.Stop()
	for {
		p.CaptureOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// CaptureOnce runs one capture round: a CPU profile (if the process
// profiler is free) and a heap profile, then prunes the ring.
func (p *Profiler) CaptureOnce(ctx context.Context) {
	seq := int(p.seq.Add(1))
	p.captureCPU(ctx, seq)
	p.captureHeap(seq)
	p.pruneRing()
}

func (p *Profiler) captureCPU(ctx context.Context, seq int) {
	f, err := os.Create(p.ringPath("cpu", seq))
	if err != nil {
		return
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another profiler holds the CPU sampler; drop the empty file.
		os.Remove(f.Name())
		return
	}
	select {
	case <-ctx.Done():
	case <-time.After(min(2*time.Second, p.opts.Interval/2)):
	}
	pprof.StopCPUProfile()
}

func (p *Profiler) captureHeap(seq int) {
	f, err := os.Create(p.ringPath("heap", seq))
	if err != nil {
		return
	}
	defer f.Close()
	runtime.GC() // fold recent frees in, the standard pre-heap-profile hygiene
	pprof.WriteHeapProfile(f)
}

func (p *Profiler) ringPath(kind string, seq int) string {
	return filepath.Join(p.opts.Dir, fmt.Sprintf("%s-%06d.pprof", kind, seq))
}

// pruneRing deletes the oldest files of each kind beyond ringKeep.
func (p *Profiler) pruneRing() {
	for _, kind := range []string{"cpu", "heap"} {
		files, err := filepath.Glob(filepath.Join(p.opts.Dir, kind+"-*.pprof"))
		if err != nil {
			continue
		}
		sort.Strings(files) // zero-padded sequence numbers sort chronologically
		for len(files) > ringKeep {
			os.Remove(files[0])
			files = files[1:]
		}
	}
}

// Ring lists the current ring files, oldest first.
func (p *Profiler) Ring() []string {
	var out []string
	for _, kind := range []string{"cpu", "heap"} {
		files, _ := filepath.Glob(filepath.Join(p.opts.Dir, kind+"-*.pprof"))
		out = append(out, files...)
	}
	sort.Strings(out)
	return out
}

// DumpTo copies the ring into dir (created if needed) — called from a
// flight-recorder dump hook so the profiles land beside the trace
// file. Failures are swallowed for the same reason the recorder
// swallows its own.
func (p *Profiler) DumpTo(dir string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	for _, src := range p.Ring() {
		copyFile(src, filepath.Join(dir, filepath.Base(src)))
	}
}

func copyFile(src, dst string) {
	in, err := os.Open(src)
	if err != nil {
		return
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return
	}
	defer out.Close()
	io.Copy(out, in)
}
