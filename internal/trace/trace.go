// Package trace is a dependency-free span tracer for the MAMDR
// pipeline: context.Context-carried spans with start/end times,
// attributes, and parent links, safe to create from any goroutine.
//
// Aggregate metrics (package telemetry) say *that* a DN outer step is
// slow; spans say *why* — which domain's inner step stalled, on which
// PS pull, behind which forward pass. Spans propagate across the
// net/rpc transport as a TraceContext field in the RPC arguments, so a
// parameter-server-side span links to the worker-side span that issued
// the call even across a real socket.
//
// Completed spans flow to pluggable Sinks: a LineSink that streams one
// Chrome trace event per line to a file (the lines joined into an array
// load in Perfetto or chrome://tracing), a bounded in-memory Collector
// (behind the /debug/trace capture handler), and the FlightRecorder — a
// ring buffer of the most recent spans that dumps itself to disk when
// an anomaly fires (NaN loss, loss spike, RPC error, serve-pool
// saturation).
//
// Everything is nil-receiver-safe: a nil *Tracer yields nil *Spans
// whose methods all no-op, so instrumented hot paths never branch on
// tracing being enabled and the disabled path costs two context
// lookups per Start.
package trace

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values should be
// JSON-encodable scalars (string, int, float64, bool).
type Attr struct {
	Key   string
	Value any
}

// A is shorthand for constructing an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// TraceContext is the wire-format parent reference: the identifiers a
// caller embeds in RPC arguments so the callee's spans join the
// caller's trace. All fields are exported for gob encoding.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// Valid reports whether the context references a real trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// Span is one timed operation. A span is owned by the goroutine that
// started it until End; after End it is immutable and may be read by
// exporters concurrently. Propagate work to other goroutines by
// passing the context returned from Start — children started there
// link back safely.
type Span struct {
	// Name is the operation name, e.g. "worker.inner_step".
	Name string
	// TraceID groups all spans of one logical operation; ID identifies
	// this span; ParentID is zero for roots.
	TraceID, ID, ParentID uint64
	// Remote marks spans whose parent arrived via a propagated
	// TraceContext rather than an in-process context.
	Remote bool

	tracer  *Tracer
	sampled bool
	start   time.Time
	dur     time.Duration
	attrs   []Attr
	ended   atomic.Bool
}

// SetAttr annotates the span. Call only from the owning goroutine,
// before End.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || !s.sampled {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End completes the span and hands it to the tracer's sinks. Multiple
// Ends are safe; only the first one records.
func (s *Span) End() {
	if s == nil || !s.sampled || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.dur = time.Since(s.start)
	s.tracer.record(s)
}

// EndWith attaches final attributes and ends the span.
func (s *Span) EndWith(attrs ...Attr) {
	if s == nil || !s.sampled {
		return
	}
	s.attrs = append(s.attrs, attrs...)
	s.End()
}

// Context returns the span's propagation context for embedding in RPC
// arguments. A nil span yields the zero (invalid) TraceContext.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.TraceID, SpanID: s.ID, Sampled: s.sampled}
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's duration (zero before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Attrs returns the span's attributes. Read only after End.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// --- identifiers ---

// Span and trace ids combine a per-process random high half with an
// atomic counter, so ids are unique within a process and collide
// across processes only with ~2^-32 probability — good enough to tell
// worker-side and server-side spans apart in a merged trace view.
var (
	idHi  = uint64(rand.Uint32()+1) << 32
	idSeq atomic.Uint64
)

func newID() uint64 { return idHi | (idSeq.Add(1) & 0xffffffff) }

// --- context plumbing ---

type ctxKey int

const (
	spanKey ctxKey = iota
	tracerKey
	remoteKey
)

// Context installs the tracer into ctx so Start can create root spans.
// A nil tracer returns ctx unchanged.
func (t *Tracer) Context(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// WithRemote installs a remote parent (a TraceContext that arrived in
// RPC arguments) and the local tracer into ctx: the next Start becomes
// a Remote child of the caller's span. An invalid tc or nil tracer
// falls back to plain tracer installation.
func WithRemote(ctx context.Context, t *Tracer, tc TraceContext) context.Context {
	ctx = t.Context(ctx)
	if t == nil || !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, tc)
}

// FromContext returns the current span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// ContextOf returns the propagation context of the current span (the
// zero TraceContext when none is active). This is what RPC clients
// embed in their call arguments.
func ContextOf(ctx context.Context) TraceContext {
	return FromContext(ctx).Context()
}

// Start begins a span named name: a child of the context's current
// span if one is active, else a Remote child of a propagated
// TraceContext installed by WithRemote, else a new sampled-or-not root
// if a tracer is installed. Without any of those it returns (ctx, nil)
// — and every method on a nil span is a no-op — so call sites never
// branch.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		s := &Span{
			Name:     name,
			TraceID:  parent.TraceID,
			ParentID: parent.ID,
			tracer:   parent.tracer,
			sampled:  parent.sampled,
		}
		if s.sampled {
			s.ID = newID()
			s.start = time.Now()
			s.attrs = attrs
		}
		return context.WithValue(ctx, spanKey, s), s
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	if t == nil {
		return ctx, nil
	}
	s := &Span{Name: name, tracer: t}
	if tc, ok := ctx.Value(remoteKey).(TraceContext); ok && tc.Valid() {
		s.TraceID, s.ParentID, s.Remote = tc.TraceID, tc.SpanID, true
		s.sampled = tc.Sampled
	} else {
		s.TraceID = newID()
		s.sampled = t.sampleRoot()
	}
	if s.sampled {
		s.ID = newID()
		s.start = time.Now()
		s.attrs = attrs
	}
	return context.WithValue(ctx, spanKey, s), s
}

// --- tracer ---

// Sink receives completed spans. Record must be safe for concurrent
// use and must not retain the span's attrs slice for mutation (spans
// are immutable after End).
type Sink interface {
	Record(s *Span)
}

// Options configures a Tracer.
type Options struct {
	// Sample is the fraction of root spans recorded, in (0, 1].
	// Zero or anything >= 1 samples everything. Children inherit the
	// root's decision, as does the remote side of a propagated call.
	Sample float64
	// FlightSize is the flight-recorder ring capacity (completed
	// spans retained for anomaly dumps). Zero means the default 256;
	// negative disables the recorder.
	FlightSize int
	// FlightPath is the dump file prefix: an anomaly of kind K writes
	// <FlightPath>-K.trace.json. Empty keeps dumps in memory only.
	FlightPath string
}

// Tracer creates and collects spans. The zero value is not usable;
// call New. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	sample float64
	flight *FlightRecorder

	mu    sync.Mutex // guards sink add/remove (copy-on-write)
	sinks atomic.Pointer[[]Sink]
}

// New builds a tracer. The flight recorder (unless disabled) is
// attached as a permanent sink.
func New(opts Options) *Tracer {
	t := &Tracer{sample: opts.Sample}
	size := opts.FlightSize
	if size == 0 {
		size = 256
	}
	if size > 0 {
		t.flight = NewFlightRecorder(size, opts.FlightPath)
		t.AddSink(t.flight)
	}
	return t
}

// Flight returns the tracer's flight recorder (nil when disabled or
// on a nil tracer). FlightRecorder methods are nil-receiver-safe, so
// tracer.Flight().Trigger(...) is always a safe call.
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// AddSink attaches a sink to receive every completed span.
func (t *Tracer) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.sinks.Load()
	var next []Sink
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	t.sinks.Store(&next)
}

// RemoveSink detaches a previously added sink.
func (t *Tracer) RemoveSink(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.sinks.Load()
	if old == nil {
		return
	}
	next := make([]Sink, 0, len(*old))
	for _, have := range *old {
		if have != s {
			next = append(next, have)
		}
	}
	t.sinks.Store(&next)
}

func (t *Tracer) record(s *Span) {
	if t == nil {
		return
	}
	sinks := t.sinks.Load()
	if sinks == nil {
		return
	}
	for _, sink := range *sinks {
		sink.Record(s)
	}
}

func (t *Tracer) sampleRoot() bool {
	if t.sample <= 0 || t.sample >= 1 {
		return true
	}
	return rand.Float64() < t.sample
}
