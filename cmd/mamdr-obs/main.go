// Command mamdr-obs is the fleet observer: it scrapes the metric
// snapshot (GET /metrics/snapshot) of every mamdr process — trainers
// and parameter-server shard hosts on their -metrics-addr, serve
// frontends on their listener — federates them into one fleet-wide
// Prometheus exposition, burns the SLO error budgets against the
// aggregate, and serves a live dashboard.
//
// Usage:
//
//	mamdr-obs -scrape trainer=127.0.0.1:9090,ps=127.0.0.1:9092,serve=127.0.0.1:8080
//	curl localhost:9600/metrics          # federated fleet exposition
//	curl localhost:9600/slo              # SLO burn status + alerts fired
//	open http://localhost:9600/          # live dashboard
//
// A firing burn-rate alert increments mamdr_slo_burn_alerts_total,
// appends an slo_burn event to -events, and (with -flight-dump)
// triggers a flight-recorder dump.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"mamdr/internal/obsv"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mamdr-obs: ")

	var (
		scrape   = flag.String("scrape", "", `comma-separated scrape targets serving /metrics/snapshot over HTTP: "host:port" or "role=host:port"`)
		addr     = flag.String("addr", ":9600", "serve the federated /metrics, /slo, and dashboard on this address")
		interval = flag.Duration("interval", 5*time.Second, "scrape cadence")
		timeout  = flag.Duration("timeout", 3*time.Second, "per-target scrape timeout")
		runFor   = flag.Duration("run-for", 0, "exit after this long with a summary line (0 = run until killed)")
		once     = flag.Bool("once", false, "one scrape round: print the federated exposition to stdout and exit")
		sloFast  = flag.Bool("slo-fast", false, "shrink every SLO burn window to seconds (CI and demos: alerts fire within one scrape round of a fault)")

		eventsPath = flag.String("events", "", "append JSONL observer events (scrape errors, slo_burn, slo_clear) to this file, rotated at 64 MiB with 3 segments kept")
		flightDump = flag.String("flight-dump", "", "flight-recorder dump path prefix written when an SLO alert fires")

		profileDir      = flag.String("profile-dir", "", "continuous profiling: keep a ring of CPU+heap pprof profiles in this directory")
		profileInterval = flag.Duration("profile-interval", 30*time.Second, "continuous-profiling capture cadence (with -profile-dir)")
	)
	flag.Parse()

	targets, err := obsv.ParseTargets(*scrape)
	if err != nil {
		log.Fatal(err)
	}
	if len(targets) == 0 {
		log.Fatal("-scrape: no targets given (see -help)")
	}

	var events *telemetry.EventLog
	if *eventsPath != "" {
		events, err = telemetry.OpenEventLog(*eventsPath)
		if err != nil {
			log.Fatal(err)
		}
		defer events.Close()
	}

	var flight *trace.FlightRecorder
	if *flightDump != "" {
		flight = trace.NewFlightRecorder(0, *flightDump)
	}

	slos := obsv.DefaultSLOs()
	if *sloFast {
		for i := range slos {
			slos[i].BudgetWindow = time.Minute
			slos[i].Windows = []obsv.Window{{Duration: 10 * time.Second, MaxBurn: 1}, {Duration: 30 * time.Second, MaxBurn: 1}}
		}
		log.Printf("slo-fast: burn windows 10s/30s against a 1m budget window")
	}

	srv := obsv.NewServer(obsv.ServerOptions{
		Targets:  targets,
		Interval: *interval,
		Timeout:  *timeout,
		SLOs:     slos,
		Events:   events,
		Flight:   flight,
	})

	if *profileDir != "" {
		prof, err := obsv.NewProfiler(obsv.ProfileOptions{Dir: *profileDir, Interval: *profileInterval})
		if err != nil {
			log.Fatal(err)
		}
		go prof.Run(context.Background())
		flight.SetOnDump(func(d trace.Dump) { prof.DumpTo(*profileDir + "/flight-" + d.Kind) })
		log.Printf("continuous profiling to %s every %s", *profileDir, *profileInterval)
	}

	if *once {
		srv.ScrapeOnce()
		if err := writeFederated(srv, os.Stdout); err != nil {
			log.Fatal(err)
		}
		summarize(srv)
		return
	}

	go func() {
		log.Printf("observing %d targets; serving on %s", len(targets), *addr)
		hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
		if err := hs.ListenAndServe(); err != nil {
			log.Printf("http: %v", err)
		}
	}()

	ctx := context.Background()
	if *runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runFor)
		defer cancel()
	}
	srv.Run(ctx)
	summarize(srv)
	if flight != nil {
		for _, d := range flight.Dumps() {
			log.Printf("flight-recorder dump (%s): %s", d.Kind, d.Path)
		}
	}
}

// writeFederated renders the current federated exposition.
func writeFederated(srv *obsv.Server, w *os.File) error {
	req, _ := http.NewRequest("GET", "/metrics", nil)
	rec := newSink(w)
	srv.Handler().ServeHTTP(rec, req)
	return rec.err
}

// sink adapts an *os.File to http.ResponseWriter for -once output.
type sink struct {
	w   *os.File
	h   http.Header
	err error
}

func newSink(w *os.File) *sink      { return &sink{w: w, h: http.Header{}} }
func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(int)     {}
func (s *sink) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	if err != nil && s.err == nil {
		s.err = err
	}
	return n, err
}

// summarize prints the greppable exit line CI asserts on.
func summarize(srv *obsv.Server) {
	var firing []string
	for _, st := range srv.Status() {
		if st.Firing {
			firing = append(firing, st.Name)
		}
	}
	state := "none"
	if len(firing) > 0 {
		state = strings.Join(firing, ",")
	}
	fmt.Printf("obs summary: alerts_fired=%d firing=%s\n", srv.Fired(), state)
}
