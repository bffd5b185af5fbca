package obsv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mamdr/internal/telemetry"
)

// qfam builds one gauge family with per-(instance, domain) series, the
// shape the federated view hands BuildQualityReport.
func qfam(name string, series ...telemetry.SeriesSnapshot) telemetry.FamilySnapshot {
	return telemetry.FamilySnapshot{Name: name, Kind: "gauge", Series: series}
}

func qseries(value float64, labels ...telemetry.Label) telemetry.SeriesSnapshot {
	return telemetry.SeriesSnapshot{Labels: labels, Value: value}
}

func TestBuildQualityReport(t *testing.T) {
	inst := telemetry.L("instance", "serve-1")
	fams := []telemetry.FamilySnapshot{
		qfam("mamdr_quality_auc",
			qseries(0.71, inst, telemetry.L("domain", "books"), telemetry.L("role", "serve")),
			qseries(0.52, inst, telemetry.L("domain", "music"), telemetry.L("role", "serve"))),
		qfam("mamdr_quality_auc_baseline",
			qseries(0.72, inst, telemetry.L("domain", "books")),
			qseries(0.70, inst, telemetry.L("domain", "music"))),
		qfam("mamdr_quality_psi",
			qseries(0.02, inst, telemetry.L("domain", "books"), telemetry.L("kind", "score")),
			qseries(0.41, inst, telemetry.L("domain", "music"), telemetry.L("kind", "score")),
			qseries(0.30, inst, telemetry.L("domain", "music"), telemetry.L("kind", "label"))),
		qfam("mamdr_quality_calibration_ratio",
			qseries(1.05, inst, telemetry.L("domain", "books"))),
		qfam("mamdr_quality_fleet_auc", qseries(0.66, inst)),
		qfam("mamdr_quality_baseline_missing",
			qseries(1, telemetry.L("instance", "serve-2")),
			qseries(0, inst)),
	}
	status := []SLOStatus{
		{Name: "serve-availability", Firing: true}, // non-quality: must not flip Go
		{Name: "quality-psi-drift", Firing: true},
		{Name: "quality-auc-floor", Firing: false},
	}

	rep := BuildQualityReport(fams, status)

	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %+v", len(rep.Rows), rep.Rows)
	}
	books := rep.Rows[0]
	if books.Domain != "books" || books.AUC != 0.71 || books.BaselineAUC != 0.72 {
		t.Fatalf("books row = %+v", books)
	}
	if got := books.AUCDelta; got > -0.0099 || got < -0.0101 {
		t.Fatalf("books auc_delta = %v, want ~-0.01", got)
	}
	if books.Role != "serve" || books.Calibration != 1.05 {
		t.Fatalf("books row lost role/calibration: %+v", books)
	}

	// music regressed hardest AND drifted hardest: first in both lists.
	if rep.WorstByAUCDelta[0].Domain != "music" {
		t.Fatalf("worst_by_auc_delta[0] = %+v, want music", rep.WorstByAUCDelta[0])
	}
	if w := rep.WorstByPSI[0]; w.Domain != "music" || w.ScorePSI != 0.41 || w.LabelPSI != 0.30 {
		t.Fatalf("worst_by_psi[0] = %+v, want music with both PSI kinds", w)
	}

	if len(rep.Fleet) != 1 || rep.Fleet[0].AUC != 0.66 {
		t.Fatalf("fleet rows = %+v", rep.Fleet)
	}
	if len(rep.BaselineMissing) != 1 || rep.BaselineMissing[0] != "serve-2" {
		t.Fatalf("baseline_missing = %v, want [serve-2]", rep.BaselineMissing)
	}
	if rep.Go {
		t.Fatal("go=true while quality-psi-drift fires")
	}
	if len(rep.Firing) != 1 || rep.Firing[0] != "quality-psi-drift" {
		t.Fatalf("firing = %v, want only the quality SLO", rep.Firing)
	}

	// No quality SLO firing (even with other SLOs burning) → go.
	rep = BuildQualityReport(fams, []SLOStatus{{Name: "serve-availability", Firing: true}})
	if !rep.Go || len(rep.Firing) != 0 {
		t.Fatalf("go=%v firing=%v, want go with no quality SLO burning", rep.Go, rep.Firing)
	}
}

// TestQualitySLOsFireOnBreachCounters drives the shipped quality SLOs
// through the burn engine with a fake clock: a drifting fleet fires
// quality-psi-drift and quality-auc-floor; a matched fleet fires
// nothing.
func TestQualitySLOsFireOnBreachCounters(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	now := t0
	e := NewEvaluator(DefaultSLOs(), EvalOptions{Now: func() time.Time { return now }})

	fams := func(psi, auc float64) []telemetry.FamilySnapshot {
		return []telemetry.FamilySnapshot{
			counterFam("mamdr_quality_psi_breaches_total", psi),
			counterFam("mamdr_quality_auc_floor_breaches_total", auc),
		}
	}

	// Matched traffic: counters flat at zero across rounds — quiet.
	e.Eval(fams(0, 0))
	now = t0.Add(time.Minute)
	if a := e.Eval(fams(0, 0)); len(a) != 0 {
		t.Fatalf("quality SLOs fired on a matched fleet: %v", a)
	}

	// Drift: 200 PSI breaches and 100 AUC-floor breaches in 5 minutes
	// against budgets of 5/h and 3/h — both burn far past 14.4x.
	now = t0.Add(6 * time.Minute)
	alerts := e.Eval(fams(200, 100))
	fired := map[string]bool{}
	for _, a := range alerts {
		fired[a.SLO] = true
	}
	if !fired["quality-psi-drift"] || !fired["quality-auc-floor"] {
		t.Fatalf("alerts = %v, want quality-psi-drift and quality-auc-floor", alerts)
	}
	for _, st := range e.Status() {
		if st.Name == "quality-calibration" && st.Firing {
			t.Fatal("quality-calibration fired with its counter absent")
		}
	}
}

// TestServerServesQualityEndpoint exercises the HTTP surface: a server
// scraping only itself answers /quality with a well-formed go report.
func TestServerServesQualityEndpoint(t *testing.T) {
	s := NewServer(ServerOptions{})
	s.ScrapeOnce()

	req := httptest.NewRequest(http.MethodGet, "/quality", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/quality = %d", w.Code)
	}
	var rep QualityReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/quality body not JSON: %v\n%s", err, w.Body)
	}
	if !rep.Go {
		t.Fatalf("fresh fleet reports no-go: %+v", rep)
	}
}
