// This file is the live snapshot publication path: the versioned
// warm-swap behind POST /admin/publish and the serve-side half of the
// rollout gate's Fleet interface. A publication never touches the
// request path until its snapshot is fully composed; installation is
// one atomic view store, and the displaced incumbent keeps serving
// every request that already loaded it.

package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"mamdr/internal/core"
	"mamdr/internal/framework"
	"mamdr/internal/paramvec"
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
// version and whether the snapshot was staged as a canary. The state's
// vectors are served by reference and must not be written afterwards.
func (s *Server) Publish(state *core.State, version uint64, crc uint32, baseline *quality.Baseline) (uint64, bool, error) {
	// A vector that does not fit would serve garbage through the bound
	// replicas.
	for d, vec := range append([]paramvec.Vector{state.Shared}, state.Specific...) {
		if err := s.layout.Fit(vec); err != nil {
			s.metrics.publishOutcome("rejected")
			return 0, false, fmt.Errorf("serve: new state's vector %d (θ_S, then each θ_i): %w", d, err)
		}
	}
	return s.publish(s.composeState(state), version, crc, baseline)
}

// publish stages snap as Publish describes.
func (s *Server) publish(snap *snapshot, version uint64, crc uint32, baseline *quality.Baseline) (uint64, bool, error) {
	s.mu.Lock()
	old := s.view.Load()
	if old.canary != nil {
		s.mu.Unlock()
		s.metrics.publishOutcome("rejected")
		return 0, false, fmt.Errorf("%w: v%d still under evaluation", errCanaryInFlight, old.canaryV)
	}
	if version == 0 {
		version = old.incumbentV + 1 // wraps to 0 past MaxUint64: refused below
	}
	if version <= old.incumbentV {
		s.mu.Unlock()
		s.metrics.publishOutcome("rejected")
		return 0, false, fmt.Errorf("serve: version regression: published v%d is not newer than incumbent v%d", version, old.incumbentV)
	}

	gate := s.gate()
	if gate == nil {
		// No gate: classic warm swap, immediately live.
		s.installLocked(snap, version, crc, baseline)
		s.mu.Unlock()
		s.metrics.publishOutcome("accepted")
		if s.opts.OnSwap != nil {
			s.opts.OnSwap(version, crc)
		}
		return version, false, nil
	}

	// The gate accepts the evaluation before any request can be routed
	// to the canary, so a refusal (it still evaluates another version)
	// leaves nothing to undo. The controller never takes s.mu while it
	// holds its own lock, so taking its lock under s.mu is safe.
	if err := gate.Begin(version, old.incumbentV); err != nil {
		s.mu.Unlock()
		s.metrics.publishOutcome("rejected")
		return 0, false, err
	}
	// Stage as canary: the incumbent stays in the view — pinned in
	// memory as the last known good — while the canary takes its
	// fraction.
	s.view.Store(&view{
		incumbent: old.incumbent, incumbentV: old.incumbentV, incumbentCRC: old.incumbentCRC,
		canary: snap, canaryV: version, canaryCRC: crc,
		fraction: gate.Fraction(),
	})
	s.pendingBaseline = baseline
	s.mu.Unlock()
	s.metrics.publishOutcome("accepted")
	return version, true, nil
}

// PromoteCanary implements rollout.Fleet: the canary becomes the
// incumbent, its staged quality baseline installs, and the old
// incumbent retires.
func (s *Server) PromoteCanary(version uint64) error {
	s.mu.Lock()
	v := s.view.Load()
	if v.canary == nil || v.canaryV != version {
		s.mu.Unlock()
		return fmt.Errorf("serve: promote v%d: no such canary", version)
	}
	s.installLocked(v.canary, v.canaryV, v.canaryCRC, s.pendingBaseline)
	s.pendingBaseline = nil
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
	s.pendingBaseline = nil
	return nil
}

// Versions reports the live snapshot versions (canary 0 when none).
func (s *Server) Versions() (incumbent, canary uint64) {
	v := s.view.Load()
	return v.incumbentV, v.canaryV
}

// PublishRequest is the POST /admin/publish body: the checkpoint to
// stage, and optionally the version to stage it as.
type PublishRequest struct {
	Path    string `json:"path,omitempty"`
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
	var req PublishRequest
	if !s.decodeBody(w, r, &req) {
		return
	}

	if req.Path == "" {
		http.Error(w, `"path" required`, http.StatusBadRequest)
		return
	}
	snap, crc, baseline, err := s.loadPublishSource(r.Context(), req.Path)
	if err != nil {
		s.metrics.publishOutcome("rejected")
		http.Error(w, "publish source: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}

	version, canary, err := s.publish(snap, req.Version, crc, baseline)
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
// snapshot. It needs no model: the file is read and verified once — a
// CRC-corrupt or truncated file is rejected before any decode — and its
// vectors, decoded against the served structure's layout and trained
// on the served dataset and model (framework.CheckData), are served as
// the file stores them: θ_S dense, each θ_i table as its stored rows.
func (s *Server) loadPublishSource(ctx context.Context, path string) (*snapshot, uint32, *quality.Baseline, error) {
	if err := s.opts.Faults.Eval("PublishSource").Apply(ctx); err != nil {
		return nil, 0, nil, err
	}
	ck, env, err := core.ReadState(path)
	if err != nil {
		return nil, 0, nil, err
	}
	if name := s.layout.model.Name(); ck.ModelName != name {
		return nil, 0, nil, fmt.Errorf("serve: checkpoint is for model %q, server has %q", ck.ModelName, name)
	}
	if err := framework.CheckData(s.layout.spec, ck.Spec); err != nil {
		return nil, 0, nil, fmt.Errorf("serve: %w", err)
	}
	shared, specific, err := ck.DecodeRows(s.layout.Layout)
	if err != nil {
		return nil, 0, nil, err
	}
	return s.newSnapshot(shared, specific), env.CRC, ck.Quality, nil
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
