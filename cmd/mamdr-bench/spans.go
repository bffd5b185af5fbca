package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"mamdr/internal/trace"
)

// recorder holds the spans of a traced run. The benchmark opens every
// span itself, around its own calls into the program's packages, and
// never hands the context to the program: per-layer metrics must not
// depend on spans the program emits. Spans stay in memory until the
// run ends. A nil recorder records nothing, so untraced runs share the
// code paths at no cost.
type recorder struct {
	tr  *trace.Tracer
	col *trace.Collector
}

func newRecorder() *recorder {
	tr := trace.New(trace.Options{FlightSize: -1})
	col := trace.NewCollector(1 << 20)
	tr.AddSink(col)
	return &recorder{tr: tr, col: col}
}

// root opens a span that starts a new trace: one per request or epoch,
// so its children share its identifier.
func (r *recorder) root(name string) (context.Context, *trace.Span) {
	if r == nil {
		return context.Background(), nil
	}
	return trace.Start(r.tr.Context(context.Background()), name)
}

// time runs fn n times, each under its own root span.
func (r *recorder) time(name string, n int, fn func()) {
	for i := 0; i < n; i++ {
		_, sp := r.root(name)
		fn()
		sp.End()
	}
}

// seconds returns the durations of every finished span called name.
func (r *recorder) seconds(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.col.Spans() {
		if s.Name == name {
			out = append(out, s.Duration().Seconds())
		}
	}
	return out
}

// medianUS is the median duration of the spans called name, in µs.
func (r *recorder) medianUS(name string) float64 { return median(r.seconds(name)) * 1e6 }

// sumSeconds adds up the spans called name.
func (r *recorder) sumSeconds(name string) float64 {
	var t float64
	for _, s := range r.seconds(name) {
		t += s
	}
	return t
}

// writeChrome exports the spans as Chrome trace-event JSON through
// internal/trace's exporter.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := trace.WriteChrome(f, r.col.Spans(), os.Getpid(), 0); err != nil {
		f.Close()
		return fmt.Errorf("trace output %s: %w", path, err)
	}
	return f.Close()
}

// interval is a span reduced to what self time needs.
type interval struct {
	id, parent uint64
	start, end time.Duration
}

func (r *recorder) intervals() []interval {
	spans := r.col.Spans()
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].Start()
	for _, s := range spans {
		if s.Start().Before(t0) {
			t0 = s.Start()
		}
	}
	out := make([]interval, len(spans))
	for i, s := range spans {
		st := s.Start().Sub(t0)
		out[i] = interval{id: s.ID, parent: s.ParentID, start: st, end: st + s.Duration()}
	}
	return out
}

// selfTimes maps each span to its duration minus the part of that
// interval its direct children cover (overlapping children count once,
// and a child is clipped to its parent).
func selfTimes(spans []interval) map[uint64]time.Duration {
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered time.Duration
		cursor := s.start
		for _, k := range kids {
			lo, hi := k.start, k.end
			if lo < cursor {
				lo = cursor
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.id] = (s.end - s.start) - covered
	}
	return out
}

// childCover is the share of the spans called name that their children
// cover: 1 − Σself ÷ Σduration.
func (r *recorder) childCover(name string) float64 {
	self := selfTimes(r.intervals())
	var dur, own time.Duration
	for _, s := range r.col.Spans() {
		if s.Name == name {
			dur += s.Duration()
			own += self[s.ID]
		}
	}
	if dur == 0 {
		return 0
	}
	return 1 - float64(own)/float64(dur)
}
