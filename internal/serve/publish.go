// This file is the live snapshot publication path: the versioned
// warm-swap behind POST /admin/publish and the serve-side half of the
// rollout gate's Fleet interface. A publication never touches the
// request path until its snapshot is fully composed; installation is
// one atomic view store, and the displaced incumbent keeps serving
// every request that already loaded it.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"mamdr/internal/core"
	"mamdr/internal/quality"
	"mamdr/internal/rollout"
)

// errCanaryInFlight rejects a second publication while one canary is
// still under evaluation — two canaries against one incumbent would
// split the evidence three ways.
var errCanaryInFlight = errors.New("serve: canary already in flight")

// Publish stages a new state under version (0 = auto-increment past
// the incumbent) keyed to the checkpoint envelope CRC. With a rollout
// gate attached, the snapshot becomes a canary taking the gate's
// traffic fraction and the decision is the gate's; without one it
// swaps in immediately. Publish rejects, loudly, version regressions
// (an explicit version at or below the incumbent's — replaying an old
// snapshot silently is how fleets end up serving last week's model)
// and structurally incompatible states. It returns the assigned
// version and whether the snapshot was staged as a canary.
func (s *Server) Publish(state *core.State, version uint64, crc uint32, baseline *quality.Baseline) (uint64, bool, error) {
	s.mu.Lock()
	old := s.view.Load()
	if old.canary != nil {
		s.mu.Unlock()
		s.metrics.publishOutcome("rejected")
		return 0, false, fmt.Errorf("%w: v%d still under evaluation", errCanaryInFlight, old.canaryV)
	}
	if err := s.layout.validate(state.Shared, state.Specific); err != nil {
		s.mu.Unlock()
		s.metrics.publishOutcome("rejected")
		return 0, false, err
	}
	if version == 0 {
		version = old.incumbentV + 1
	} else if version <= old.incumbentV {
		s.mu.Unlock()
		s.metrics.publishOutcome("rejected")
		return 0, false, fmt.Errorf("serve: version regression: published v%d is not newer than incumbent v%d", version, old.incumbentV)
	}
	snap := s.composeState(state)

	gate := s.gate()
	if gate == nil {
		// No gate: classic warm swap, immediately live.
		s.installLocked(state, snap, version, crc, baseline)
		s.mu.Unlock()
		s.metrics.publishOutcome("accepted")
		if s.opts.OnSwap != nil {
			s.opts.OnSwap(version, crc)
		}
		return version, false, nil
	}

	// Stage as canary: the incumbent stays in the view — pinned in
	// memory as the last known good — while the canary takes its
	// fraction.
	s.view.Store(&view{
		incumbent: old.incumbent, incumbentV: old.incumbentV, incumbentCRC: old.incumbentCRC,
		canary: snap, canaryV: version, canaryCRC: crc,
		fraction: gate.Fraction(),
	})
	s.pendingState, s.pendingBaseline = state, baseline
	s.metrics.snapshotVersions(old.incumbentV, version)
	incumbentV := old.incumbentV
	s.mu.Unlock()

	if err := gate.Begin(version, incumbentV); err != nil {
		// The gate refused (e.g. it raced another evaluation): undo the
		// staging so view and gate cannot disagree about what's flying.
		s.mu.Lock()
		s.view.Store(old)
		s.pendingState, s.pendingBaseline = nil, nil
		s.metrics.snapshotVersions(old.incumbentV, 0)
		s.mu.Unlock()
		s.metrics.publishOutcome("rejected")
		return 0, false, err
	}
	s.metrics.publishOutcome("accepted")
	return version, true, nil
}

// PromoteCanary implements rollout.Fleet: the canary becomes the
// incumbent, its staged state and quality baseline install, and the
// old incumbent retires.
func (s *Server) PromoteCanary(version uint64) error {
	s.mu.Lock()
	v := s.view.Load()
	if v.canary == nil || v.canaryV != version {
		s.mu.Unlock()
		return fmt.Errorf("serve: promote v%d: no such canary", version)
	}
	s.installLocked(s.pendingState, v.canary, v.canaryV, v.canaryCRC, s.pendingBaseline)
	s.pendingState, s.pendingBaseline = nil, nil
	s.mu.Unlock()
	if s.opts.OnSwap != nil {
		s.opts.OnSwap(version, v.canaryCRC)
	}
	return nil
}

// RollbackCanary implements rollout.Fleet: the canary is dropped and
// the incumbent — untouched and still in the view — keeps serving.
// Nothing recomposes, so post-rollback predictions are bit-identical
// to never having published.
func (s *Server) RollbackCanary(version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.view.Load()
	if v.canary == nil || v.canaryV != version {
		return fmt.Errorf("serve: rollback v%d: no such canary", version)
	}
	s.view.Store(&view{incumbent: v.incumbent, incumbentV: v.incumbentV, incumbentCRC: v.incumbentCRC})
	s.pendingState, s.pendingBaseline = nil, nil
	s.metrics.snapshotVersions(v.incumbentV, 0)
	return nil
}

// Versions reports the live snapshot versions (canary 0 when none).
func (s *Server) Versions() (incumbent, canary uint64) {
	v := s.view.Load()
	return v.incumbentV, v.canaryV
}

// PublishRequest is the POST /admin/publish body: exactly one source —
// a checkpoint path, or "upstream" to pull the live cluster snapshot.
type PublishRequest struct {
	Path    string `json:"path,omitempty"`
	Source  string `json:"source,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// PublishResponse reports the accepted publication.
type PublishResponse struct {
	Version  uint64  `json:"version"`
	CRC      string  `json:"crc,omitempty"`
	Canary   bool    `json:"canary"`
	Fraction float64 `json:"fraction,omitempty"`
}

// RolloutStatusResponse is the GET /admin/rollout view: what serves,
// what's flying, and the gate's evidence.
type RolloutStatusResponse struct {
	IncumbentVersion uint64         `json:"incumbent_version"`
	IncumbentCRC     string         `json:"incumbent_crc,omitempty"`
	CanaryVersion    uint64         `json:"canary_version,omitempty"`
	CanaryCRC        string         `json:"canary_crc,omitempty"`
	Gate             rollout.Status `json:"gate"`
}

func (s *Server) handleAdminPublish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req PublishRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}

	var (
		state    *core.State
		crc      uint32
		baseline *quality.Baseline
		err      error
	)
	switch {
	case req.Path != "" && req.Source == "":
		state, crc, baseline, err = s.loadPublishSource(r.Context(), req.Path)
	case req.Source == "upstream" && req.Path == "":
		state, err = s.upstreamPublishSource(r.Context())
	default:
		http.Error(w, `exactly one of "path" or "source":"upstream" required`, http.StatusBadRequest)
		return
	}
	if err != nil {
		s.metrics.publishOutcome("rejected")
		http.Error(w, "publish source: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}

	version, canary, err := s.Publish(state, req.Version, crc, baseline)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	resp := PublishResponse{Version: version, Canary: canary}
	if crc != 0 {
		resp.CRC = fmt.Sprintf("%08x", crc)
	}
	if canary {
		resp.Fraction = s.gate().Fraction()
	}
	s.writeJSON(w, r, resp)
}

// loadPublishSource decodes a checkpoint straight into a publishable
// state. It needs no model: the file is read and verified once — a
// CRC-corrupt or truncated file is rejected before any decode — and its
// vectors, checked against the served structure, become the state as
// they are.
func (s *Server) loadPublishSource(ctx context.Context, path string) (*core.State, uint32, *quality.Baseline, error) {
	if err := s.opts.Faults.Eval("PublishSource").Apply(ctx); err != nil {
		return nil, 0, nil, err
	}
	var ck core.Checkpoint
	env, err := core.LoadGobEnvelope(path, &ck)
	if err != nil {
		return nil, 0, nil, err
	}
	if name := s.layout.model.Name(); ck.ModelName != name {
		return nil, 0, nil, fmt.Errorf("serve: checkpoint is for model %q, server has %q", ck.ModelName, name)
	}
	if err := s.layout.validate(ck.Shared, ck.Specific); err != nil {
		return nil, 0, nil, err
	}
	return &core.State{Model: s.layout.model, Shared: ck.Shared, Specific: ck.Specific}, env.CRC, ck.Quality, nil
}

// upstreamPublishSource builds a publishable state from the live
// cluster snapshot: fresh shared parameters over the served
// domain-specific ones.
func (s *Server) upstreamPublishSource(ctx context.Context) (*core.State, error) {
	up := s.opts.Upstream
	if up == nil || up.Snapshot == nil {
		return nil, errors.New("serve: no upstream snapshot source configured")
	}
	if err := s.opts.Faults.Eval("UpstreamSnapshot").Apply(ctx); err != nil {
		return nil, err
	}
	vec, err := up.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("upstream snapshot: %w", err)
	}
	s.mu.Lock()
	cur := s.state
	s.mu.Unlock()
	return &core.State{Model: cur.Model, Shared: vec, Specific: cur.Specific}, nil
}

func (s *Server) handleRolloutStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	v := s.view.Load()
	resp := RolloutStatusResponse{
		IncumbentVersion: v.incumbentV,
		Gate:             s.gate().Status(),
	}
	if v.incumbentCRC != 0 {
		resp.IncumbentCRC = fmt.Sprintf("%08x", v.incumbentCRC)
	}
	if v.canary != nil {
		resp.CanaryVersion = v.canaryV
		if v.canaryCRC != 0 {
			resp.CanaryCRC = fmt.Sprintf("%08x", v.canaryCRC)
		}
	}
	s.writeJSON(w, r, resp)
}

func (s *Server) handleAdminRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	d := s.gate().Cancel()
	if d == nil {
		http.Error(w, "no canary in flight", http.StatusConflict)
		return
	}
	s.writeJSON(w, r, d)
}
