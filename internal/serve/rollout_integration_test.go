// Integration tests for the live rollout path: publish → canary →
// promote/rollback, end to end through the HTTP surface. The central
// claim under test is the safety contract: a quality-regressing canary
// is rolled back automatically with zero 5xx responses, and the
// incumbent's post-rollback predictions are bit-identical to never
// having published.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/faultinject"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/quality"
	"mamdr/internal/rollout"
	"mamdr/internal/telemetry"
)

// cloneState deep-copies a state's parameters over a fresh model —
// publishing the clone serves bit-identical scores.
func cloneState(st *core.State, model models.Model) *core.State {
	spec := make([]paramvec.Vector, len(st.Specific))
	for d := range st.Specific {
		spec[d] = st.Specific[d].Clone()
	}
	return &core.State{Model: model, Shared: st.Shared.Clone(), Specific: spec}
}

// poisonState builds a structurally valid but quality-destroyed state:
// the shared parameters are negated and amplified, the way a corrupted
// or mistrained checkpoint regresses quality without failing any
// structural validation.
func poisonState(st *core.State, model models.Model) *core.State {
	bad := cloneState(st, model)
	for i := range bad.Shared {
		for j := range bad.Shared[i] {
			bad.Shared[i][j] = -4 * bad.Shared[i][j]
		}
	}
	return bad
}

// ridsFor picks n request IDs that routeToCanary assigns to the wanted
// arm under fraction — tests choose their arm by choosing their
// X-Request-ID, exactly like the routing contract promises.
func ridsFor(fraction float64, canary bool, n int, prefix string) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		rid := fmt.Sprintf("%s-%05d", prefix, i)
		if routeToCanary(rid, fraction) == canary {
			out = append(out, rid)
		}
	}
	return out
}

// predictRID posts a prediction under an explicit request ID.
func predictRID(t *testing.T, h http.Handler, rid string, req PredictRequest) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/predict", &buf)
	if rid != "" {
		r.Header.Set("X-Request-ID", rid)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// decisionLog collects gate decisions concurrency-safely.
type decisionLog struct {
	mu sync.Mutex
	ds []rollout.Decision
}

func (l *decisionLog) add(d rollout.Decision) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *decisionLog) all() []rollout.Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]rollout.Decision(nil), l.ds...)
}

// rolloutPairs is a fixed probe workload: one user-item pair per
// request, bounded by the dataset's actual user/item counts.
func rolloutPairs(ds *data.Dataset) []PredictRequest {
	pairs := make([]PredictRequest, 24)
	for i := range pairs {
		pairs[i] = PredictRequest{
			Domain: i % 2,
			Users:  []int{i % ds.NumUsers},
			Items:  []int{(i*3 + 1) % ds.NumItems},
		}
	}
	return pairs
}

// groundTruthLabels queries the incumbent for every pair and labels
// each pair by whether its score is above the median — by construction
// the incumbent ranks these labels perfectly, so any canary that
// scrambles scores shows an AUC regression.
func groundTruthLabels(t *testing.T, h http.Handler, pairs []PredictRequest) []bool {
	t.Helper()
	probs := make([]float64, len(pairs))
	for i, p := range pairs {
		w := predictRID(t, h, fmt.Sprintf("gt-%05d", i), p)
		if w.Code != http.StatusOK {
			t.Fatalf("ground-truth predict %d = %d: %s", i, w.Code, w.Body)
		}
		var resp PredictResponse
		if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		probs[i] = resp.Probabilities[0]
	}
	sorted := append([]float64(nil), probs...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	labels := make([]bool, len(pairs))
	for i, p := range probs {
		labels[i] = p >= median
	}
	return labels
}

// TestPoisonedCanaryAutoRollsBackBitIdentical is the acceptance drill:
// a quality-regressing canary takes its traffic fraction, the gate
// collects prequential evidence from both arms, rolls the canary back,
// and the incumbent serves on — bit-identical to never having
// published, with zero 5xx along the way.
func TestPoisonedCanaryAutoRollsBackBitIdentical(t *testing.T) {
	st, ds, factory := testState(t)
	reg := telemetry.New()
	s := NewWithOptions(st, ds, Options{
		Replicas: 2, ReplicaFactory: factory,
		Metrics: reg,
		Quality: quality.NewTracker(reg, quality.Options{}),
	})
	var dl decisionLog
	ctrl := rollout.New(s, reg, nil, rollout.Config{
		Fraction:   0.5,
		MinLabeled: 32,
		MinScores:  1 << 20, // PSI gate disabled: force the labeled (AUC) path
		OnDecision: dl.add,
	})
	s.SetRollout(ctrl)
	h := s.Handler()

	pairs := rolloutPairs(ds)
	labels := groundTruthLabels(t, h, pairs)

	// Baseline: the incumbent's exact response bytes for a fixed probe
	// set. JSON float64 encoding round-trips, so byte equality is score
	// equality.
	verifyRIDs := ridsFor(0.5, false, 8, "verify")
	baseline := make(map[string]string, len(verifyRIDs))
	for i, rid := range verifyRIDs {
		w := predictRID(t, h, rid, pairs[i%len(pairs)])
		if w.Code != http.StatusOK {
			t.Fatalf("baseline predict = %d: %s", w.Code, w.Body)
		}
		baseline[rid] = w.Body.String()
	}

	version, canary, err := s.Publish(poisonState(st, factory()), 0, 0xfeed, nil)
	if err != nil || !canary || version != 2 {
		t.Fatalf("Publish = (%d, %v, %v), want (2, true, nil)", version, canary, err)
	}
	if inc, can := s.Versions(); inc != 1 || can != 2 {
		t.Fatalf("Versions during canary = (%d, %d), want (1, 2)", inc, can)
	}
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if ready.Code != http.StatusOK || !strings.Contains(ready.Body.String(), "canary v2 at 50%") {
		t.Fatalf("readyz during canary = %d %q", ready.Code, ready.Body.String())
	}

	// Drive both arms with labeled feedback. Every response along the
	// way must be a success: a rollout must never surface as a 5xx.
	incRIDs := ridsFor(0.5, false, 48, "inc")
	canRIDs := ridsFor(0.5, true, 48, "can")
	feed := func(rid string, pair int) {
		t.Helper()
		if w := predictRID(t, h, rid, pairs[pair]); w.Code != http.StatusOK {
			t.Fatalf("predict %s = %d: %s", rid, w.Code, w.Body)
		}
		lbl := 0.0
		if labels[pair] {
			lbl = 1.0
		}
		w := postJSON(t, h, "/feedback", FeedbackRequest{RequestID: rid, Labels: []float64{lbl}})
		if w.Code != http.StatusOK {
			t.Fatalf("feedback %s = %d: %s", rid, w.Code, w.Body)
		}
	}
	for i := range incRIDs {
		feed(incRIDs[i], i%len(pairs))
		feed(canRIDs[i], i%len(pairs))
		if i == 10 {
			// Mid-canary, the incumbent arm must still serve baseline
			// bytes: the canary never touches the other arm's snapshot.
			for j, rid := range verifyRIDs {
				if got := predictRID(t, h, rid, pairs[j%len(pairs)]); got.Body.String() != baseline[rid] {
					t.Fatalf("mid-canary incumbent drift on %s:\n got %q\nwant %q", rid, got.Body.String(), baseline[rid])
				}
			}
		}
	}

	decisions := dl.all()
	if len(decisions) == 0 {
		t.Fatalf("no gate decision after %d labeled observations per arm", len(incRIDs))
	}
	d := decisions[0]
	if d.Action != "rollback" || d.Version != 2 || d.FleetErr != "" {
		t.Fatalf("decision = %+v, want rollback of v2", d)
	}
	if d.Reason != "auc" && d.Reason != "logloss" {
		t.Fatalf("rollback reason = %q, want a labeled-evidence gate", d.Reason)
	}
	if !strings.Contains(d.String(), "rollout_decision=rollback") {
		t.Fatalf("decision line = %q", d.String())
	}
	if inc, can := s.Versions(); inc != 1 || can != 0 {
		t.Fatalf("Versions after rollback = (%d, %d), want (1, 0)", inc, can)
	}

	// Bit-identity: the same probes under the same request IDs serve the
	// exact bytes they did before the poisoned snapshot ever existed.
	for j, rid := range verifyRIDs {
		got := predictRID(t, h, rid, pairs[j%len(pairs)])
		if got.Code != http.StatusOK {
			t.Fatalf("post-rollback predict = %d", got.Code)
		}
		if got.Body.String() != baseline[rid] {
			t.Fatalf("post-rollback drift on %s:\n got %q\nwant %q", rid, got.Body.String(), baseline[rid])
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`mamdr_rollout_decisions_total{decision="rollback",reason="` + d.Reason + `"} 1`,
		"mamdr_rollout_canary_active 0",
		"mamdr_serve_canary_version 0",
		"mamdr_serve_snapshot_version 1",
		`mamdr_serve_publish_total{outcome="accepted"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestCleanCanaryPromotes proves the other half of the gate: a canary
// that matches the incumbent's quality is promoted once the evidence
// threshold is met, and the promotion invokes OnSwap with the new
// incumbent identity.
func TestCleanCanaryPromotes(t *testing.T) {
	st, ds, factory := testState(t)
	reg := telemetry.New()
	var swaps []uint64
	s := NewWithOptions(st, ds, Options{
		Replicas: 2, ReplicaFactory: factory,
		Metrics: reg,
		Quality: quality.NewTracker(reg, quality.Options{}),
		OnSwap:  func(version uint64, _ uint32) { swaps = append(swaps, version) },
	})
	var dl decisionLog
	ctrl := rollout.New(s, reg, nil, rollout.Config{
		Fraction:   0.5,
		MinLabeled: 32,
		MinScores:  1 << 20,
		OnDecision: dl.add,
	})
	s.SetRollout(ctrl)
	h := s.Handler()

	pairs := rolloutPairs(ds)
	labels := groundTruthLabels(t, h, pairs)

	if _, canary, err := s.Publish(cloneState(st, factory()), 0, 0xbeef, nil); err != nil || !canary {
		t.Fatalf("Publish = (canary %v, %v)", canary, err)
	}

	incRIDs := ridsFor(0.5, false, 40, "inc")
	canRIDs := ridsFor(0.5, true, 40, "can")
	for i := range incRIDs {
		for _, rid := range []string{incRIDs[i], canRIDs[i]} {
			if w := predictRID(t, h, rid, pairs[i%len(pairs)]); w.Code != http.StatusOK {
				t.Fatalf("predict %s = %d: %s", rid, w.Code, w.Body)
			}
			lbl := 0.0
			if labels[i%len(pairs)] {
				lbl = 1.0
			}
			if w := postJSON(t, h, "/feedback", FeedbackRequest{RequestID: rid, Labels: []float64{lbl}}); w.Code != http.StatusOK {
				t.Fatalf("feedback %s = %d: %s", rid, w.Code, w.Body)
			}
		}
	}

	decisions := dl.all()
	if len(decisions) == 0 {
		t.Fatal("no gate decision")
	}
	if d := decisions[0]; d.Action != "promote" || d.Reason != "clean" || d.FleetErr != "" {
		t.Fatalf("decision = %+v, want clean promote", d)
	}
	if inc, can := s.Versions(); inc != 2 || can != 0 {
		t.Fatalf("Versions after promote = (%d, %d), want (2, 0)", inc, can)
	}
	if len(swaps) != 1 || swaps[0] != 2 {
		t.Fatalf("OnSwap calls = %v, want [2]", swaps)
	}
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if !strings.Contains(ready.Body.String(), "ready v2 crc=0000beef") {
		t.Fatalf("readyz after promote = %q", ready.Body.String())
	}
}

// TestPSIRollbackFromScoresAlone drives only unlabeled traffic: the
// poisoned canary's score distribution alone — no labels ever arrive —
// is enough for the PSI gate to roll it back.
func TestPSIRollbackFromScoresAlone(t *testing.T) {
	st, ds, factory := testState(t)
	s := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory})
	var dl decisionLog
	ctrl := rollout.New(s, nil, nil, rollout.Config{
		Fraction:   0.5,
		MinScores:  64,
		MinLabeled: 1 << 20,
		OnDecision: dl.add,
	})
	s.SetRollout(ctrl)
	h := s.Handler()

	if _, canary, err := s.Publish(poisonState(st, factory()), 0, 0, nil); err != nil || !canary {
		t.Fatalf("Publish = (canary %v, %v)", canary, err)
	}

	pairs := rolloutPairs(ds)
	incRIDs := ridsFor(0.5, false, 80, "inc")
	canRIDs := ridsFor(0.5, true, 80, "can")
	for i := range incRIDs {
		for _, rid := range []string{incRIDs[i], canRIDs[i]} {
			if w := predictRID(t, h, rid, pairs[i%len(pairs)]); w.Code != http.StatusOK {
				t.Fatalf("predict %s = %d: %s", rid, w.Code, w.Body)
			}
		}
		if len(dl.all()) > 0 {
			break
		}
	}

	decisions := dl.all()
	if len(decisions) == 0 {
		t.Fatal("PSI gate never fired on score evidence")
	}
	if d := decisions[0]; d.Action != "rollback" || d.Reason != "psi" {
		t.Fatalf("decision = %+v, want psi rollback", d)
	}
	if inc, can := s.Versions(); inc != 1 || can != 0 {
		t.Fatalf("Versions = (%d, %d), want (1, 0)", inc, can)
	}
}

// TestAdminPublishLifecycle exercises POST /admin/publish with real
// checkpoint files on an ungated server: a clean envelope swaps in
// immediately; a CRC-corrupt file and a version regression are rejected
// loudly with distinct statuses.
func TestAdminPublishLifecycle(t *testing.T) {
	st, ds, factory := testState(t)
	reg := telemetry.New()
	s := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory, Metrics: reg})
	h := s.Handler()
	dir := t.TempDir()

	st2 := framework.MustNew("mamdr").Fit(factory(), ds, framework.Config{Epochs: 2, BatchSize: 32, Seed: 123}).(*core.State)
	good := filepath.Join(dir, "v2.ckpt")
	if err := st2.Save(good); err != nil {
		t.Fatal(err)
	}

	before := predictRID(t, h, "probe-1", PredictRequest{Domain: 0, Users: []int{0, 1}, Items: []int{0, 1}})

	w := postJSON(t, h, "/admin/publish", PublishRequest{Path: good})
	if w.Code != http.StatusOK {
		t.Fatalf("publish = %d: %s", w.Code, w.Body)
	}
	var resp PublishResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 || resp.Canary || resp.CRC == "" {
		t.Fatalf("publish response = %+v, want v2 immediate with CRC", resp)
	}
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if !strings.Contains(ready.Body.String(), "ready v2 crc="+resp.CRC) {
		t.Fatalf("readyz after publish = %q, want v2 crc=%s", ready.Body.String(), resp.CRC)
	}
	after := predictRID(t, h, "probe-1", PredictRequest{Domain: 0, Users: []int{0, 1}, Items: []int{0, 1}})
	if before.Body.String() == after.Body.String() {
		t.Fatal("published snapshot serves the old scores")
	}

	var status RolloutStatusResponse
	wr := httptest.NewRecorder()
	h.ServeHTTP(wr, httptest.NewRequest(http.MethodGet, "/admin/rollout", nil))
	if err := json.NewDecoder(wr.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.IncumbentVersion != 2 || status.CanaryVersion != 0 || status.Gate.Active {
		t.Fatalf("rollout status = %+v", status)
	}

	// A corrupt checkpoint must be rejected before anything decodes.
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	bad := filepath.Join(dir, "corrupt.ckpt")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, h, "/admin/publish", PublishRequest{Path: bad}); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt publish = %d, want 422: %s", w.Code, w.Body)
	}

	// Replaying an old version must be refused, not silently served.
	w = postJSON(t, h, "/admin/publish", PublishRequest{Path: good, Version: 2})
	if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "version regression") {
		t.Fatalf("regressing publish = %d %q, want 409 version regression", w.Code, w.Body.String())
	}
	if inc, _ := s.Versions(); inc != 2 {
		t.Fatalf("incumbent = v%d after rejected publishes, want v2", inc)
	}

	// Exactly one source is required.
	if w := postJSON(t, h, "/admin/publish", PublishRequest{Path: good, Source: "upstream"}); w.Code != http.StatusBadRequest {
		t.Fatalf("two-source publish = %d, want 400", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/admin/publish", nil)
	wg := httptest.NewRecorder()
	h.ServeHTTP(wg, req)
	if wg.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/publish = %d, want 405", wg.Code)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`mamdr_serve_publish_total{outcome="accepted"} 1`,
		`mamdr_serve_publish_total{outcome="rejected"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPublishDoesNotNeedAReplica: a file publish decodes vectors, not a
// model. On a single-replica server whose only replica is held by an
// in-flight forward (stalled by an injected delay), POST /admin/publish
// {path} goes through while the forward is still holding it.
func TestPublishDoesNotNeedAReplica(t *testing.T) {
	st, ds, factory := testState(t)
	s := NewWithOptions(st, ds, Options{Faults: faultinject.MustParse("Predict:delay=1m@1", 1)})
	h := s.Handler()
	st2 := framework.MustNew("mamdr").Fit(factory(), ds, framework.Config{Epochs: 2, BatchSize: 32, Seed: 123}).(*core.State)
	path := filepath.Join(t.TempDir(), "v2.ckpt")
	if err := st2.Save(path); err != nil {
		t.Fatal(err)
	}

	// The stalled forward: it ends only when its request is cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stalled := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}})
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)).WithContext(ctx))
		stalled <- w.Code
	}()
	for deadline := time.Now().Add(10 * time.Second); len(s.pool) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled forward never took the replica")
		}
	}

	w := postJSON(t, h, "/admin/publish", PublishRequest{Path: path})
	if w.Code != http.StatusOK {
		t.Fatalf("publish with the only replica busy = %d: %s", w.Code, w.Body)
	}
	if len(s.pool) != 0 {
		t.Fatal("the forward finished before the publish returned; the test proved nothing")
	}
	if inc, _ := s.Versions(); inc != 2 {
		t.Fatalf("incumbent = v%d, want v2", inc)
	}

	cancel()
	if code := <-stalled; code == http.StatusOK {
		t.Fatalf("cancelled forward = %d", code)
	}
	// The published vectors serve: the scores are the new state's own.
	var resp PredictResponse
	req := PredictRequest{Domain: 0, Users: []int{0, 1}, Items: []int{0, 1}}
	if err := json.NewDecoder(postJSON(t, h, "/predict", req).Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	want := st2.Predict(ds.MakeBatch(0, []data.Interaction{{User: 0, Item: 0}, {User: 1, Item: 1}}))
	for i := range want {
		if resp.Probabilities[i] != want[i] {
			t.Fatalf("pair %d: served %v, published state predicts %v", i, resp.Probabilities[i], want[i])
		}
	}
}

// TestAdminManualRollback pins the operator override: POST
// /admin/rollback cancels the in-flight canary unconditionally and a
// second call reports there is nothing to roll back.
func TestAdminManualRollback(t *testing.T) {
	st, ds, factory := testState(t)
	s := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory})
	ctrl := rollout.New(s, nil, nil, rollout.Config{Fraction: 0.5})
	s.SetRollout(ctrl)
	h := s.Handler()

	if _, canary, err := s.Publish(cloneState(st, factory()), 0, 0, nil); err != nil || !canary {
		t.Fatalf("Publish = (canary %v, %v)", canary, err)
	}
	w := postJSON(t, h, "/admin/rollback", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("rollback = %d: %s", w.Code, w.Body)
	}
	var d rollout.Decision
	if err := json.NewDecoder(w.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Action != "rollback" || d.Reason != "manual" {
		t.Fatalf("decision = %+v, want manual rollback", d)
	}
	if inc, can := s.Versions(); inc != 1 || can != 0 {
		t.Fatalf("Versions = (%d, %d), want (1, 0)", inc, can)
	}
	if w := postJSON(t, h, "/admin/rollback", nil); w.Code != http.StatusConflict {
		t.Fatalf("second rollback = %d, want 409", w.Code)
	}
}

// TestPublishRejectsSecondCanary: one canary in flight at a time.
func TestPublishRejectsSecondCanary(t *testing.T) {
	st, ds, factory := testState(t)
	s := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory})
	ctrl := rollout.New(s, nil, nil, rollout.Config{Fraction: 0.5})
	s.SetRollout(ctrl)

	if _, canary, err := s.Publish(cloneState(st, factory()), 0, 0, nil); err != nil || !canary {
		t.Fatalf("first Publish = (canary %v, %v)", canary, err)
	}
	if _, _, err := s.Publish(cloneState(st, factory()), 0, 0, nil); err == nil {
		t.Fatal("second canary accepted while the first is in flight")
	}
	ctrl.Cancel()
	if _, canary, err := s.Publish(cloneState(st, factory()), 0, 0, nil); err != nil || !canary {
		t.Fatalf("Publish after cancel = (canary %v, %v)", canary, err)
	}
}

// TestUpstreamSourcedPublishWithChaos covers the "source":"upstream"
// publish path and the serving-side fault injector: the first snapshot
// pull and the first path load are injected to fail (422, loudly), then
// the retry succeeds.
func TestUpstreamSourcedPublishWithChaos(t *testing.T) {
	st, ds, factory := testState(t)
	shared := st.Shared.Clone()
	for i := range shared {
		for j := range shared[i] {
			shared[i][j] *= 1.01
		}
	}
	s := NewWithOptions(st, ds, Options{
		Replicas: 2, ReplicaFactory: factory,
		Upstream: &Upstream{Snapshot: func() (paramvec.Vector, error) { return shared.Clone(), nil }},
		Faults:   faultinject.MustParse("UpstreamSnapshot:err@1", 7),
	})
	h := s.Handler()

	w := postJSON(t, h, "/admin/publish", PublishRequest{Source: "upstream"})
	if w.Code != http.StatusUnprocessableEntity || !strings.Contains(w.Body.String(), "faultinject") {
		t.Fatalf("injected upstream publish = %d %q, want 422 injected", w.Code, w.Body.String())
	}
	w = postJSON(t, h, "/admin/publish", PublishRequest{Source: "upstream"})
	if w.Code != http.StatusOK {
		t.Fatalf("upstream publish after fault = %d: %s", w.Code, w.Body)
	}
	var resp PublishResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 || resp.Canary {
		t.Fatalf("upstream publish = %+v, want immediate v2", resp)
	}
}

// TestPredictFaultInjectionReturnsReplica: an injected forward-pass
// failure surfaces as a 500 without leaking the replica — the next
// request serves normally.
func TestPredictFaultInjectionReturnsReplica(t *testing.T) {
	st, ds, _ := testState(t)
	s := NewWithOptions(st, ds, Options{Faults: faultinject.MustParse("Predict:err@1", 3)})
	h := s.Handler()

	req := PredictRequest{Domain: 0, Users: []int{0}, Items: []int{0}}
	w := postJSON(t, h, "/predict", req)
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "prediction failed") {
		t.Fatalf("injected predict = %d %q, want 500", w.Code, w.Body.String())
	}
	if w := postJSON(t, h, "/predict", req); w.Code != http.StatusOK {
		t.Fatalf("predict after injected fault = %d: %s", w.Code, w.Body)
	}
	if len(s.pool) != 1 {
		t.Fatalf("replica pool has %d free replicas, want 1 (leak)", len(s.pool))
	}
}

// TestConcurrentPublishDrainPredict races the full mutation surface —
// canary staging, cancellation, drain toggles, readiness probes —
// against live predictions. Run with -race; the assertion is simply
// that every prediction succeeds while the control plane churns.
func TestConcurrentPublishDrainPredict(t *testing.T) {
	st, ds, factory := testState(t)
	s := NewWithOptions(st, ds, Options{Replicas: 2, ReplicaFactory: factory, MaxQueue: 64})
	ctrl := rollout.New(s, nil, nil, rollout.Config{Fraction: 0.5, MinLabeled: 1 << 20, MinScores: 1 << 20})
	s.SetRollout(ctrl)
	h := s.Handler()

	// Clones are prepared up front: building them races nothing.
	clones := make([]*core.State, 24)
	for i := range clones {
		clones[i] = cloneState(st, factory())
	}

	var wg sync.WaitGroup
	codes := make(chan int, 4*120)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				rid := fmt.Sprintf("g%d-%04d", g, i)
				w := predictRID(t, h, rid, PredictRequest{Domain: i % 2, Users: []int{i % ds.NumUsers}, Items: []int{(i * 3) % ds.NumItems}})
				codes <- w.Code
			}
		}(g)
	}
	wg.Add(1)
	go func() { // canary staging and rollback churn
		defer wg.Done()
		for _, c := range clones {
			if _, canary, err := s.Publish(c, 0, 0, nil); err == nil && canary {
				ctrl.Cancel()
			}
		}
	}()
	wg.Add(1)
	go func() { // drain toggles: /readyz flips, predictions must not
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.SetDraining(i%2 == 0)
		}
		s.SetDraining(false)
	}()
	wg.Add(1)
	go func() { // readiness and status probes race the view swaps
		defer wg.Done()
		for i := 0; i < 100; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
			w2 := httptest.NewRecorder()
			h.ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/admin/rollout", nil))
		}
	}()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("prediction returned %d during control-plane churn", code)
		}
	}
	if inc, can := s.Versions(); can != 0 || inc == 0 {
		t.Fatalf("Versions after churn = (%d, %d), want no canary left", inc, can)
	}
}
