package obsv

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"mamdr/internal/telemetry"
)

// ServerOptions configures the fleet-observability server behind
// cmd/mamdr-obs.
type ServerOptions struct {
	// Targets are the processes to scrape.
	Targets []Target
	// Interval between scrape rounds. Default 5s.
	Interval time.Duration
	// Timeout per scrape. Default 3s.
	Timeout time.Duration
	// SLOs to burn against the aggregated series. Nil means
	// DefaultSLOs; an explicit empty slice disables SLO evaluation.
	SLOs []SLO
	// Events receives the JSONL audit trail (scrape errors, slo_burn,
	// slo_clear). Nil disables.
	Events *telemetry.EventLog
	// Flight receives a trigger per rising-edge alert so the dump
	// carries recent span history.
	Flight telemetry.AnomalySink
}

// Server scrapes the fleet on a cadence, maintains the latest
// federated and aggregated views, evaluates SLOs, and serves the
// results over HTTP. The observer observes itself too: its registry
// (scrape counters, alert counters, build info) joins the federation
// as role "obs".
type Server struct {
	opts    ServerOptions
	reg     *telemetry.Registry
	scraper Scraper
	eval    *Evaluator

	scrapes   *telemetry.Counter
	scrapeErr *telemetry.Counter
	scrapeDur *telemetry.Histogram

	mu        sync.Mutex
	fleet     *Fleet
	agg       []telemetry.FamilySnapshot
	lastErrs  []string
	lastRound time.Time
}

// NewServer builds the server; SLO evaluation shares the server's own
// registry so mamdr_slo_burn_alerts_total federates like any series.
func NewServer(opts ServerOptions) *Server {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Second
	}
	if opts.SLOs == nil {
		opts.SLOs = DefaultSLOs()
	}
	reg := telemetry.New()
	RegisterBuildInfo(reg, "obs")
	s := &Server{
		opts:    opts,
		reg:     reg,
		scraper: Scraper{Timeout: opts.Timeout},
		eval: NewEvaluator(opts.SLOs, EvalOptions{
			Registry: reg, Events: opts.Events, Flight: opts.Flight,
		}),
		scrapes: reg.Counter("mamdr_obs_scrapes_total",
			"Fleet scrape attempts across all targets."),
		scrapeErr: reg.Counter("mamdr_obs_scrape_errors_total",
			"Fleet scrapes that failed (unreachable target, bad snapshot)."),
		scrapeDur: reg.Histogram("mamdr_obs_scrape_round_seconds",
			"Wall time of one full scrape round.", telemetry.DefBuckets),
	}
	return s
}

// Registry exposes the server's own metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// ScrapeOnce runs one round: scrape every target, fold in the
// server's own registry, federate, aggregate, evaluate SLOs. It
// returns the rising-edge alerts from this round. Scrape failures
// degrade the view (the instance is simply absent) rather than failing
// the round.
func (s *Server) ScrapeOnce() []Alert {
	start := time.Now()
	results := s.scraper.ScrapeAll(s.opts.Targets)

	var snaps []telemetry.RegistrySnapshot
	var errs []string
	for _, r := range results {
		s.scrapes.Inc()
		if r.Err != nil {
			s.scrapeErr.Inc()
			errs = append(errs, r.Err.Error())
			s.opts.Events.Log("scrape_error", map[string]any{"target": r.Target.String(), "error": r.Err.Error()})
			continue
		}
		snaps = append(snaps, r.Snap)
	}
	s.scrapeDur.Observe(time.Since(start).Seconds())

	self := s.reg.Snapshot()
	self.Role, self.Instance = "obs", "mamdr-obs"
	snaps = append(snaps, self)

	fleet, err := Federate(snaps)
	if err != nil {
		errs = append(errs, err.Error())
		s.opts.Events.Log("federate_error", map[string]any{"error": err.Error()})
	}
	agg, aerr := Aggregate(snaps)
	if aerr != nil {
		errs = append(errs, aerr.Error())
	}

	var alerts []Alert
	if aerr == nil {
		alerts = s.eval.Eval(agg)
	}

	s.mu.Lock()
	if err == nil {
		s.fleet = fleet
	}
	if aerr == nil {
		s.agg = agg
	}
	s.lastErrs = errs
	s.lastRound = time.Now()
	s.mu.Unlock()
	return alerts
}

// Run scrapes on the configured cadence until ctx is done. The first
// round runs immediately.
func (s *Server) Run(ctx context.Context) {
	ticker := time.NewTicker(s.opts.Interval)
	defer ticker.Stop()
	for {
		s.ScrapeOnce()
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// Fired returns the total rising-edge alerts so far.
func (s *Server) Fired() int64 { return s.eval.Fired() }

// Status returns the current per-SLO burn state.
func (s *Server) Status() []SLOStatus { return s.eval.Status() }

// Summary is the JSON body of /metrics/summary.
type Summary struct {
	Instances    []InstanceInfo `json:"instances"`
	Families     int            `json:"families"`
	Series       int            `json:"series"`
	ScrapeErrors []string       `json:"scrape_errors,omitempty"`
	AlertsFired  int64          `json:"alerts_fired"`
	LastRound    time.Time      `json:"last_round"`
}

func (s *Server) summary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := Summary{AlertsFired: s.eval.Fired(), LastRound: s.lastRound,
		ScrapeErrors: append([]string(nil), s.lastErrs...)}
	if s.fleet != nil {
		sum.Instances = s.fleet.Instances
		sum.Families = len(s.fleet.Families)
		for _, f := range s.fleet.Families {
			sum.Series += len(f.Series)
		}
	}
	return sum
}

// Handler serves the observability surface:
//
//	GET /              -> live HTML dashboard
//	GET /metrics       -> federated Prometheus exposition (all instances)
//	GET /metrics/summary -> JSON fleet summary
//	GET /slo           -> JSON SLO status
//	GET /quality       -> JSON model-quality report (worst domains, drift, go/no-go)
//	GET /healthz       -> liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		fleet := s.fleet
		s.mu.Unlock()
		w.Header().Set("Content-Type", telemetry.ContentType)
		if fleet != nil {
			fleet.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/metrics/summary", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.summary())
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Fired int64       `json:"alerts_fired"`
			SLOs  []SLOStatus `json:"slos"`
		}{s.eval.Fired(), s.eval.Status()})
	})
	mux.HandleFunc("/quality", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.qualityReport())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(dashboardHTML))
	})
	return mux
}
