package obsv

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// Uses names the optional shared flags a program takes: Trace
// registers -trace and -trace-sample (the program records spans, and
// its flight recorder is its tracer's), Events registers -events.
type Uses struct{ Trace, Events bool }

// Harness is the process plumbing mamdr-train, mamdr-serve and
// mamdr-obs share: the tracer with its flight recorder, the continuous
// profiler, and the event log.
type Harness struct {
	// Tracer records the program's spans; nil when it runs untraced.
	Tracer *trace.Tracer
	// Flight dumps the recent spans when an anomaly fires: the
	// tracer's, or a standalone recorder in a program that does not
	// trace. Nil when there is neither; its methods are nil-safe.
	Flight *trace.FlightRecorder
	// Events is the -events log; nil (and nil-safe) without the flag.
	Events *telemetry.EventLog

	spans       *telemetry.EventLog
	stopProfile func() // cancels the profiler and waits for it to exit
}

// HarnessFlags registers the flags every program shares on fs —
// -flight-dump and -profile-dir, plus -trace/-trace-sample and -events
// as uses says — and returns the function that builds the harness once
// fs is parsed. traced asks for a tracer that no flag asks for
// (mamdr-serve always traces; mamdr-train does whenever its /metrics
// listener serves /debug/trace); -trace and -flight-dump always build
// one where uses.Trace holds.
func HarnessFlags(fs *flag.FlagSet, uses Uses) func(traced bool) (*Harness, error) {
	flightDump := fs.String("flight-dump", "", "flight-recorder dump path prefix: the first anomaly of each kind K writes PREFIX-K.trace.json (with -trace, the default is <trace>.flight)")
	profileDir := fs.String("profile-dir", "", "continuous profiling: keep a ring of CPU+heap pprof profiles, captured every 30s, in this directory")
	tracePath, traceSample, eventsPath := new(string), new(float64), new(string)
	if uses.Trace {
		tracePath = fs.String("trace", "", "append one Chrome trace event per completed span, one JSON object per line, to this file, rotated at 64 MiB with 3 segments kept; it is never truncated, so remove it for a capture of one run (join the lines into an array to load it in Perfetto)")
		traceSample = fs.Float64("trace-sample", 1, "fraction of root spans to record (0..1)")
	}
	if uses.Events {
		eventsPath = fs.String("events", "", "append JSONL events (mamdr-train: one per epoch; mamdr-obs: scrape errors, slo_burn, slo_clear) to this file, rotated at 64 MiB with 3 segments kept")
	}
	return func(traced bool) (*Harness, error) {
		flight := *flightDump
		if flight == "" && *tracePath != "" {
			flight = *tracePath + ".flight"
		}
		if flight != "" {
			if err := os.MkdirAll(filepath.Dir(flight), 0o755); err != nil {
				return nil, fmt.Errorf("-flight-dump: %w", err)
			}
		}
		h := &Harness{}
		switch {
		case uses.Trace && (traced || flight != ""):
			h.Tracer = trace.New(trace.Options{Sample: *traceSample, FlightPath: flight})
			h.Flight = h.Tracer.Flight()
		case flight != "":
			h.Flight = trace.NewFlightRecorder(0, flight)
		}
		var err error
		if *tracePath != "" {
			if h.spans, err = telemetry.OpenEventLog(*tracePath); err != nil {
				return nil, err
			}
			h.Tracer.AddSink(trace.LineSink{W: h.spans})
			log.Printf("streaming spans to %s", *tracePath)
		}
		if *eventsPath != "" {
			if h.Events, err = telemetry.OpenEventLog(*eventsPath); err != nil {
				h.Close()
				return nil, err
			}
		}
		if *profileDir != "" {
			// A flight dump copies the profile ring beside it, so an
			// anomaly ships with the profiles of the moments before it.
			prof, err := NewProfiler(ProfileOptions{Dir: *profileDir})
			if err != nil {
				h.Close()
				return nil, err
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { prof.Run(ctx); close(done) }()
			h.stopProfile = func() { cancel(); <-done }
			h.Flight.SetOnDump(func(d trace.Dump) {
				prof.DumpTo(filepath.Join(*profileDir, "flight-"+d.Kind))
			})
			log.Printf("continuous profiling to %s every %s", *profileDir, prof.opts.Interval)
		}
		return h, nil
	}
}

// Close stops the profiler, closes the span and event files, and logs
// every flight-recorder dump the process fired.
func (h *Harness) Close() {
	if h.stopProfile != nil {
		h.stopProfile()
	}
	if err := h.spans.Close(); err != nil {
		log.Printf("trace: %v", err)
	}
	h.Events.Close()
	for _, d := range h.Flight.Dumps() {
		where := d.Path
		if where == "" {
			where = "not written to a file"
		}
		log.Printf("flight-recorder dump (%s): %s", d.Kind, where)
	}
}
