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

// --- streamed span file ---

// LineSink is a Sink that streams every completed span as one Chrome
// trace event: a JSON object on a line of its own, handed to W in one
// Write. In the programs W is a telemetry.EventLog, which rotates the
// file between whole lines, so a process that never exits keeps a
// bounded file and a killed one leaves every span it completed on
// disk. Joining the lines into a JSON array gives the events
// WriteChrome writes for the same spans, a file Perfetto loads:
//
//	(echo '['; paste -sd, run.trace.jsonl; echo ']') > run.trace.json
type LineSink struct {
	W io.Writer
}

// Record implements Sink. A span that fails to encode or write is
// dropped: tracing must never take down the run it observes.
func (l LineSink) Record(s *Span) {
	line, err := json.Marshal(spanToChrome(s, os.Getpid(), false))
	if err != nil {
		return
	}
	l.W.Write(append(line, '\n'))
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
