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
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mamdr-obs: ")

	harness := obsv.HarnessFlags(flag.CommandLine, obsv.Uses{Events: true})
	var (
		scrape   = flag.String("scrape", "", `comma-separated scrape targets serving /metrics/snapshot over HTTP: "host:port" or "role=host:port"`)
		addr     = flag.String("addr", ":9600", "serve the federated /metrics, /slo, and dashboard on this address")
		interval = flag.Duration("interval", 5*time.Second, "scrape cadence")
		timeout  = flag.Duration("timeout", 3*time.Second, "per-target scrape timeout")
		runFor   = flag.Duration("run-for", 0, "exit after this long with a summary line (0 = run until killed)")
		once     = flag.Bool("once", false, "one scrape round: print the federated exposition to stdout and exit")
		sloFast  = flag.Bool("slo-fast", false, "shrink every SLO burn window to seconds (CI and demos: alerts fire within one scrape round of a fault)")
	)
	flag.Parse()

	targets, err := obsv.ParseTargets(*scrape)
	if err != nil {
		log.Fatal(err)
	}
	if len(targets) == 0 {
		log.Fatal("-scrape: no targets given (see -help)")
	}

	// An SLO alert appends an event and, with -flight-dump, fires a dump
	// of a recorder that holds no spans: mamdr-obs has no tracer.
	h, err := harness(false)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()

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
		Events:   h.Events,
		Flight:   h.Flight,
	})

	if *once {
		srv.ScrapeOnce()
		if err := srv.WriteFederated(os.Stdout); err != nil {
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
