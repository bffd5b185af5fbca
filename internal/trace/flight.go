package trace

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// FlightRecorder continuously retains the last N completed spans in a
// ring buffer and dumps them — as a Chrome trace-event JSON file with
// the triggering span marked — when an anomaly fires. It is the
// "what happened in the seconds before the loss went NaN" answer that
// aggregate metrics cannot give.
//
// Each anomaly kind dumps at most once per recorder lifetime (a NaN
// loss repeats every subsequent step; one dump of the run-up is the
// signal, a thousand identical dumps are noise).
//
// Trigger's signature matches telemetry's AnomalySink interface, so a
// recorder can be handed directly to telemetry.NewLossWatch without
// either package importing the other.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []*Span
	next  int
	full  bool
	path  string
	fired map[string]bool
	dumps []Dump
}

// Dump describes one completed anomaly dump.
type Dump struct {
	Kind string
	// Path is the written file ("" when the recorder has no dump
	// path or the write failed).
	Path string
	// Spans is the ring at the trigger, oldest first; nil when the
	// recorder has no dump path, since nothing would read it.
	Spans []*Span
	// Fields are the anomaly details supplied by the trigger.
	Fields map[string]any
}

// NewFlightRecorder retains the last capacity completed spans and
// dumps anomalies to <pathPrefix>-<kind>.trace.json (with an empty
// pathPrefix a dump records only its kind and fields).
func NewFlightRecorder(capacity int, pathPrefix string) *FlightRecorder {
	if capacity < 1 {
		capacity = 256
	}
	return &FlightRecorder{
		buf:   make([]*Span, capacity),
		path:  pathPrefix,
		fired: map[string]bool{},
	}
}

// Record implements Sink.
func (f *FlightRecorder) Record(s *Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.next] = s
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (f *FlightRecorder) Snapshot() []*Span {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snapshotLocked()
}

func (f *FlightRecorder) snapshotLocked() []*Span {
	if !f.full {
		return append([]*Span(nil), f.buf[:f.next]...)
	}
	out := make([]*Span, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// Trigger fires an anomaly of the given kind: the ring buffer is
// dumped exactly once per kind (later triggers of the same kind are
// dropped). A recorder with no dump path latches the kind and keeps
// only its kind and fields, with no copy of the ring. fields annotate
// the dump's anomaly marker; the keys "trace_id" and "span_id"
// (uint64), when present, identify the span that tripped the detector
// so the dump marks it.
//
// Trigger satisfies telemetry.AnomalySink. A nil recorder ignores
// triggers, so tracer.Flight().Trigger(...) is safe unconditionally.
func (f *FlightRecorder) Trigger(kind string, fields map[string]any) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.fired[kind] {
		f.mu.Unlock()
		return
	}
	f.fired[kind] = true
	d := Dump{Kind: kind, Fields: fields}
	if f.path != "" {
		d.Spans = f.snapshotLocked()
	}
	f.mu.Unlock()

	if f.path != "" {
		var trigger uint64
		if v, ok := fields["span_id"].(uint64); ok {
			trigger = v
		}
		path := fmt.Sprintf("%s-%s.trace.json", f.path, kind)
		if writeDump(path, d, trigger) == nil {
			d.Path = path
		}
	}
	f.mu.Lock()
	f.dumps = append(f.dumps, d)
	f.mu.Unlock()
}

// writeDump renders the dump file at path. Its caller records the path
// only when this returns nil and otherwise carries on: the recorder
// must never take down the run it is observing.
func writeDump(path string, d Dump, trigger uint64) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	args := map[string]any{"kind": d.Kind}
	for k, v := range d.Fields {
		args[k] = v
	}
	marker := chromeEvent{
		Name: "ANOMALY: " + d.Kind, Cat: "anomaly", Phase: "i",
		TS: time.Now().UnixMicro(), PID: os.Getpid(), Scope: "g", Args: args,
	}
	err = WriteChrome(w, d.Spans, os.Getpid(), trigger, marker)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path) // no half-written dump left behind
	}
	return err
}

// Dumps returns the anomaly dumps fired so far.
func (f *FlightRecorder) Dumps() []Dump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Dump(nil), f.dumps...)
}
