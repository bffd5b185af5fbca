package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mamdr/internal/telemetry"
)

func collectingTracer(opts Options) (*Tracer, *Collector) {
	t := New(opts)
	c := NewCollector(0)
	t.AddSink(c)
	return t, c
}

func TestSpanParentChildLinks(t *testing.T) {
	tr, col := collectingTracer(Options{})
	ctx := tr.Context(context.Background())

	ctx, root := Start(ctx, "root", A("worker", 3))
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	root.EndWith(A("loss", 0.5))

	spans := col.Spans()
	if len(spans) != 3 {
		t.Fatalf("collected %d spans, want 3", len(spans))
	}
	// Completion order: grandchild, child, root.
	g, c, r := spans[0], spans[1], spans[2]
	if r.ParentID != 0 || c.ParentID != r.ID || g.ParentID != c.ID {
		t.Fatalf("parent links wrong: root=%x child.parent=%x grand.parent=%x", r.ID, c.ParentID, g.ParentID)
	}
	if r.TraceID != c.TraceID || c.TraceID != g.TraceID {
		t.Fatal("trace ids differ within one trace")
	}
	if len(r.Attrs()) != 2 {
		t.Fatalf("root attrs = %v, want worker + loss", r.Attrs())
	}
}

func TestStartWithoutTracerIsNoop(t *testing.T) {
	ctx, s := Start(context.Background(), "orphan")
	if s != nil {
		t.Fatal("expected nil span without a tracer")
	}
	// All nil-span methods must be safe.
	s.SetAttr("k", 1)
	s.End()
	s.EndWith(A("k", 2))
	if s.Context().Valid() {
		t.Fatal("nil span produced a valid TraceContext")
	}
	if _, s2 := Start(ctx, "child-of-orphan"); s2 != nil {
		t.Fatal("child of nil span should be nil")
	}
	var tr *Tracer
	if tr.Context(context.Background()) != context.Background() {
		t.Fatal("nil tracer must not modify the context")
	}
	tr.Flight().Trigger("x", nil) // must not panic
}

func TestRemotePropagation(t *testing.T) {
	workerTr, workerCol := collectingTracer(Options{})
	serverTr, serverCol := collectingTracer(Options{})

	wctx := workerTr.Context(context.Background())
	wctx, caller := Start(wctx, "worker.inner_step")

	// Simulate the RPC boundary: serialize the caller's TraceContext,
	// rebuild the server-side context from it.
	tc := ContextOf(wctx)
	if !tc.Valid() || !tc.Sampled {
		t.Fatalf("caller TraceContext = %+v", tc)
	}
	sctx := WithRemote(context.Background(), serverTr, tc)
	_, remote := Start(sctx, "ps.pull_rows")
	remote.End()
	caller.End()

	rs := serverCol.Spans()
	if len(rs) != 1 {
		t.Fatalf("server collected %d spans, want 1", len(rs))
	}
	if !rs[0].Remote {
		t.Fatal("server span not marked Remote")
	}
	if rs[0].TraceID != caller.TraceID || rs[0].ParentID != caller.ID {
		t.Fatalf("server span (trace=%x parent=%x) not parented to caller (trace=%x id=%x)",
			rs[0].TraceID, rs[0].ParentID, caller.TraceID, caller.ID)
	}
	if len(workerCol.Spans()) != 1 {
		t.Fatal("worker span not collected")
	}
}

func TestSamplingZeroRateStillUnbiased(t *testing.T) {
	// Sample ~10%: out of many roots, some but not all survive, and
	// children always follow their root's decision.
	tr, col := collectingTracer(Options{Sample: 0.1, FlightSize: -1})
	ctx := tr.Context(context.Background())
	const roots = 500
	for i := 0; i < roots; i++ {
		rctx, root := Start(ctx, "root")
		_, child := Start(rctx, "child")
		child.End()
		root.End()
	}
	n := len(col.Spans())
	if n == 0 || n == 2*roots {
		t.Fatalf("sampled %d of %d spans; expected partial sampling", n, 2*roots)
	}
	if n%2 != 0 {
		t.Fatalf("sampled %d spans; children must follow roots (even count)", n)
	}
}

func TestConcurrentSpansRaceClean(t *testing.T) {
	tr, col := collectingTracer(Options{})
	ctx := tr.Context(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, s := Start(ctx, "op", A("goroutine", g))
				_, inner := Start(c, "inner")
				inner.End()
				s.End()
			}
		}(g)
	}
	wg.Wait()
	if got := len(col.Spans()); got != 8*50*2 {
		t.Fatalf("collected %d spans, want %d", got, 800)
	}
}

func TestChromeExportParses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.trace.jsonl")
	spans, err := telemetry.OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Options{FlightSize: -1})
	tr.AddSink(LineSink{W: spans})

	ctx := tr.Context(context.Background())
	rctx, root := Start(ctx, "dn.outer_step")
	_, inner := Start(rctx, "dn.inner_step", A("domain", "books"))
	time.Sleep(time.Millisecond)
	inner.End()
	root.End()
	if err := spans.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events := joinLines(t, raw)
	if len(events) != 2 {
		t.Fatalf("trace has %d events, want 2", len(events))
	}
	byName := map[string]map[string]any{}
	for _, ev := range events {
		if ev["ph"] != "X" || ev["pid"] != float64(os.Getpid()) {
			t.Fatalf("bad event: %v", ev)
		}
		byName[ev["name"].(string)] = ev
	}
	in, ok := byName["dn.inner_step"]
	if !ok {
		t.Fatal("inner step missing")
	}
	args := in["args"].(map[string]any)
	if args["domain"] != "books" {
		t.Fatalf("inner args = %v", args)
	}
	if args["parent"] != byName["dn.outer_step"]["args"].(map[string]any)["span"] {
		t.Fatal("chrome args do not link child to parent")
	}
	if in["dur"].(float64) < 1000 {
		t.Fatalf("inner dur = %v us, slept 1ms", in["dur"])
	}
}

// joinLines joins a streamed span file's lines into a JSON array, as
// (echo '['; paste -sd, FILE; echo ']') does, and parses it.
func joinLines(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	joined := "[" + strings.Join(strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n"), ",") + "]"
	var events []map[string]any
	if err := json.Unmarshal([]byte(joined), &events); err != nil {
		t.Fatalf("joined lines are not Chrome trace-event JSON: %v\n%s", err, joined)
	}
	return events
}

func loadChrome(t *testing.T, path string) []map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return loadChromeBytes(t, raw)
}

// writeLog records every Write it is handed, so a test can tell one
// whole line per Write from a line split across two.
type writeLog struct {
	mu     sync.Mutex
	writes []string
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, string(p))
	w.mu.Unlock()
	return len(p), nil
}

// TestJSONLExportLines pins the streamed span file: each span is one
// Write of one whole line, a Chrome event carrying its name, attributes
// and ids. (How the programs' files rotate is telemetry's to test.)
func TestJSONLExportLines(t *testing.T) {
	w := &writeLog{}
	tr := New(Options{FlightSize: -1})
	tr.AddSink(LineSink{W: w})
	ctx := tr.Context(context.Background())
	_, s := Start(ctx, "op", A("k", "v"))
	s.End()

	lines := readLines(t, w.writes)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	rec := lines[0]
	args, _ := rec["args"].(map[string]any)
	if rec["ph"] != "X" || rec["name"] != "op" || args["k"] != "v" || args["span"] != fmt.Sprintf("%016x", s.ID) {
		t.Fatalf("record = %v", rec)
	}

	// Every further span is one more whole span line.
	for i := 0; i < 20; i++ {
		_, s := Start(ctx, "op", A("i", i))
		s.End()
	}
	lines = readLines(t, w.writes)
	if len(lines) != 21 {
		t.Fatalf("got %d lines after 21 spans", len(lines))
	}
	for _, rec := range lines {
		if rec["ph"] != "X" || rec["name"] != "op" {
			t.Fatalf("record = %v", rec)
		}
	}
}

// readLines parses writes that must each be exactly one whole line.
func readLines(t *testing.T, writes []string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range writes {
		if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
			t.Fatalf("write is not one whole line: %q", line)
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line not JSON: %v", err)
		}
		out = append(out, rec)
	}
	return out
}

// TestLineSinkJoinsToWriteChrome pins Perfetto loadability: a streamed
// file's lines joined into an array are the events WriteChrome writes
// for the same spans.
func TestLineSinkJoinsToWriteChrome(t *testing.T) {
	var lines bytes.Buffer
	tr, col := collectingTracer(Options{FlightSize: -1})
	tr.AddSink(LineSink{W: &lines})
	ctx := tr.Context(context.Background())
	for i := 0; i < 5; i++ {
		c, root := Start(ctx, "worker.epoch", A("worker", i))
		_, inner := Start(c, "worker.inner_step", A("domain", "books"), A("loss", 0.25*float64(i)))
		inner.End()
		root.End()
	}
	_, remote := Start(WithRemote(ctx, tr, TraceContext{TraceID: 7, SpanID: 9, Sampled: true}), "ps.push_delta")
	remote.End()

	var whole bytes.Buffer
	if err := WriteChrome(&whole, col.Spans(), os.Getpid(), 0); err != nil {
		t.Fatal(err)
	}
	want := loadChromeBytes(t, whole.Bytes())
	got := joinLines(t, lines.Bytes())
	if len(got) != 11 || !reflect.DeepEqual(got, want) {
		t.Fatalf("joined lines (%d events) differ from WriteChrome (%d events):\n%v\n%v", len(got), len(want), got, want)
	}
}

func loadChromeBytes(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("not valid Chrome trace-event JSON: %v\n%s", err, raw)
	}
	return events
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "flight")
	tr := New(Options{FlightSize: 64, FlightPath: prefix})
	ctx := tr.Context(context.Background())

	// Overfill the ring so it wraps: 100 spans into capacity 64.
	var last *Span
	for i := 0; i < 100; i++ {
		_, s := Start(ctx, "step", A("i", i))
		s.End()
		last = s
	}
	if got := len(tr.Flight().Snapshot()); got != 64 {
		t.Fatalf("ring holds %d spans, want 64", got)
	}

	fields := map[string]any{"loss": "NaN", "span_id": last.ID}
	tr.Flight().Trigger("nan_loss", fields)
	tr.Flight().Trigger("nan_loss", fields) // latched: must not dump twice

	dumps := tr.Flight().Dumps()
	if len(dumps) != 1 {
		t.Fatalf("%d dumps fired, want exactly 1", len(dumps))
	}
	events := loadChrome(t, prefix+"-nan_loss.trace.json")
	var spans, markers, triggers int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			spans++
			if args, ok := ev["args"].(map[string]any); ok && args["anomaly_trigger"] == true {
				triggers++
			}
		case "i":
			markers++
		}
	}
	if spans < 64 {
		t.Fatalf("dump holds %d spans, want >= 64", spans)
	}
	if markers != 1 {
		t.Fatalf("dump has %d anomaly markers, want 1", markers)
	}
	if triggers != 1 {
		t.Fatalf("dump marks %d triggering spans, want 1", triggers)
	}

	// The ring keeps the most recent spans: the oldest retained index
	// must be 100-64 = 36.
	snap := tr.Flight().Snapshot()
	if got := snap[0].Attrs()[0].Value.(int); got != 36 {
		t.Fatalf("oldest retained span is i=%d, want 36", got)
	}
}

// TestFlightDumpUnwrittenHasNoPath: a dump whose file cannot be written
// reports no path, and the recorder carries on (the spans stay in the
// dump, and the next kind still dumps).
func TestFlightDumpUnwrittenHasNoPath(t *testing.T) {
	f := NewFlightRecorder(4, filepath.Join(t.TempDir(), "missing", "x"))
	f.Record(&Span{Name: "op", TraceID: 1, ID: 2})
	f.Trigger("nan_loss", nil)
	f.Trigger("loss_spike", nil)
	dumps := f.Dumps()
	if len(dumps) != 2 {
		t.Fatalf("dumps = %d, want 2", len(dumps))
	}
	for _, d := range dumps {
		if d.Path != "" || len(d.Spans) != 1 {
			t.Fatalf("unwritten %s dump reports path %q with %d spans, want \"\" with 1", d.Kind, d.Path, len(d.Spans))
		}
	}
}

func TestCaptureHandlerWindow(t *testing.T) {
	tr := New(Options{FlightSize: -1})
	ctx := tr.Context(context.Background())
	h := CaptureHandler(tr)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
			}
			_, s := Start(ctx, "background.op")
			s.End()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	req := httptest.NewRequest("GET", "/debug/trace?sec=1", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	done <- struct{}{}

	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var events []map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &events); err != nil {
		t.Fatalf("capture is not valid Chrome JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("capture window collected nothing")
	}
	// The temporary sink must be gone after the window.
	tr.mu.Lock()
	n := len(*tr.sinks.Load())
	tr.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d sinks left attached after capture", n)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?sec=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("bad sec: status %d, want 400", rr.Code)
	}
	rr = httptest.NewRecorder()
	CaptureHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	if rr.Code != 404 {
		t.Fatalf("nil tracer: status %d, want 404", rr.Code)
	}
}
