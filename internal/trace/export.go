package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// --- Chrome trace-event JSON ---

// chromeEvent is one entry of the Chrome trace-event format's JSON
// array form (the subset Perfetto and chrome://tracing load: complete
// "X" events plus instant "i" markers).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"` // microseconds
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTID maps a span to a Chrome "thread" row. All spans of one
// trace share a row — a trace is one goroutine chain (a worker epoch,
// a serve request), so its spans nest properly in time and Perfetto
// renders the nesting as a flame graph.
func chromeTID(s *Span) uint64 { return s.TraceID & 0xffffffff }

func spanToChrome(s *Span, pid int, trigger bool) chromeEvent {
	args := map[string]any{
		"trace":  fmt.Sprintf("%016x", s.TraceID),
		"span":   fmt.Sprintf("%016x", s.ID),
		"parent": fmt.Sprintf("%016x", s.ParentID),
	}
	if s.Remote {
		args["remote"] = true
	}
	if trigger {
		args["anomaly_trigger"] = true
	}
	for _, a := range s.attrs {
		args[a.Key] = a.Value
	}
	cat := "span"
	if s.Remote {
		cat = "rpc"
	}
	dur := s.dur.Microseconds()
	if dur < 1 {
		dur = 1 // zero-duration events vanish in viewers
	}
	return chromeEvent{
		Name: s.Name, Cat: cat, Phase: "X",
		TS: s.start.UnixMicro(), Dur: dur,
		PID: pid, TID: chromeTID(s), Args: args,
	}
}

// WriteChrome renders spans as a Chrome trace-event JSON array.
// trigger, when non-zero, marks that span id with anomaly_trigger;
// extra events (e.g. anomaly instants) are appended verbatim.
func WriteChrome(w io.Writer, spans []*Span, pid int, trigger uint64, extra ...chromeEvent) error {
	events := make([]chromeEvent, 0, len(spans)+len(extra))
	for _, s := range spans {
		events = append(events, spanToChrome(s, pid, trigger != 0 && s.ID == trigger))
	}
	events = append(events, extra...)
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, ev := range events {
		if i > 0 {
			bw.WriteString(",\n")
		}
		if err := enc.Encode(ev); err != nil { // Encode appends \n; harmless inside the array
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ChromeExporter is a Sink that accumulates every completed span and
// writes one Chrome trace-event JSON file on Close. Suitable for
// bounded runs (mamdr-train -trace); for always-on serving prefer the
// /debug/trace capture handler, which bounds memory by time window.
type ChromeExporter struct {
	mu    sync.Mutex
	spans []*Span
	path  string
}

// NewChromeExporter buffers spans destined for path.
func NewChromeExporter(path string) *ChromeExporter {
	return &ChromeExporter{path: path}
}

// Record implements Sink.
func (e *ChromeExporter) Record(s *Span) {
	e.mu.Lock()
	e.spans = append(e.spans, s)
	e.mu.Unlock()
}

// Len returns the number of buffered spans.
func (e *ChromeExporter) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.spans)
}

// Close writes the trace file.
func (e *ChromeExporter) Close() error {
	e.mu.Lock()
	spans := e.spans
	e.spans = nil
	e.mu.Unlock()
	f, err := os.Create(e.path)
	if err != nil {
		return fmt.Errorf("trace: create %s: %w", e.path, err)
	}
	if err := WriteChrome(f, spans, os.Getpid(), 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- event log ---

// LogSink is a Sink that writes one "span" event per completed span
// through Log — in the programs a telemetry.EventLog, whose size-based
// rotation bounds the file of a process that never exits. Each event
// carries the span's name, trace/span/parent ids, start, dur_us,
// remote, and its attributes.
type LogSink struct {
	Log interface {
		Log(name string, fields map[string]any)
	}
}

// Record implements Sink.
func (l LogSink) Record(s *Span) {
	rec := map[string]any{
		"name":   s.Name,
		"trace":  fmt.Sprintf("%016x", s.TraceID),
		"span":   fmt.Sprintf("%016x", s.ID),
		"parent": fmt.Sprintf("%016x", s.ParentID),
		"start":  s.Start().UTC().Format("2006-01-02T15:04:05.000000Z"),
		"dur_us": s.Duration().Microseconds(),
	}
	if s.Remote {
		rec["remote"] = true
	}
	for _, a := range s.Attrs() {
		rec[a.Key] = a.Value
	}
	l.Log.Log("span", rec)
}

// --- bounded in-memory collection (capture windows, tests) ---

// Collector is a Sink that retains completed spans in memory up to a
// cap (default 1<<17), dropping the overflow.
type Collector struct {
	mu    sync.Mutex
	spans []*Span
	max   int
}

// NewCollector retains at most max spans (<= 0 means the default).
func NewCollector(max int) *Collector {
	if max <= 0 {
		max = 1 << 17
	}
	return &Collector{max: max}
}

// Record implements Sink.
func (c *Collector) Record(s *Span) {
	c.mu.Lock()
	if len(c.spans) < c.max {
		c.spans = append(c.spans, s)
	}
	c.mu.Unlock()
}

// Spans returns the collected spans (shared backing array; treat as
// read-only).
func (c *Collector) Spans() []*Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans
}
