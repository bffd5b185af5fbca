package ps

import (
	"errors"
	"fmt"
	"os"

	"mamdr/internal/core"
	"mamdr/internal/framework"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
)

// CheckpointStore is the optional capability the trainer uses for
// epoch-boundary checkpointing: the store persists its full state
// (parameters, outer-optimizer state, epoch cursor) to its
// own configured location. The in-process Server and the RPC Client
// both implement it; over RPC the snapshot lands on the server's disk,
// which is what survives a worker-side crash.
type CheckpointStore interface {
	// SaveCheckpoint persists the current state with epoch as the
	// number of fully completed training epochs.
	SaveCheckpoint(epoch int) error
	// LoadCheckpoint restores the last saved state and returns its
	// epoch cursor; (-1, nil) means no checkpoint exists yet.
	LoadCheckpoint() (int, error)
}

var _ CheckpointStore = (*Server)(nil)

// serverCheckpoint is the payload of a PS checkpoint: every managed
// tensor's values plus the outer optimizer's state, aligned with the
// tensors in index order, and the spec of the run its host serves.
// Params is the file's vector block; the rest is its gob block.
// Shards holds that one state: a slice because servers once kept an
// optimizer per lock stripe, and every file a one-stripe server wrote —
// every cluster run's — has this shape.
type serverCheckpoint struct {
	Params paramvec.Vector
	Shards []optim.State
	Epoch  int
	Spec   framework.Spec
}

// SetCheckpoint configures where SaveCheckpoint/LoadCheckpoint persist
// the server's snapshot, and the spec of the run it hosts: every save
// records it, and a load refuses a file that recorded another
// (framework.CheckResume). Set before serving traffic.
func (s *Server) SetCheckpoint(path string, spec framework.Spec) { s.ckptPath, s.spec = path, spec }

// SaveCheckpoint implements CheckpointStore: it writes the server's
// parameters, optimizer state, and the completed-epoch cursor to the
// configured path crash-safely (temp file + fsync + rename, CRC-guarded
// envelope), all three read under one hold of the lock.
func (s *Server) SaveCheckpoint(epoch int) error {
	if s.ckptPath == "" {
		return errors.New("ps: no checkpoint path configured on the server")
	}
	ck := serverCheckpoint{Shards: []optim.State{{}}, Epoch: epoch, Spec: s.spec}
	s.mu.Lock()
	ck.Params = paramvec.Snapshot(s.data)
	if st, ok := s.opt.(optim.Stateful); ok {
		ck.Shards[0] = st.CaptureState(s.data)
	}
	s.mu.Unlock()
	return writeCheckpoint(s.ckptPath, s.vectorLayout(), ck)
}

// vectorLayout is the layout of the server's tensors: the vector
// block of its checkpoint file stores only the non-zero rows of each
// embedding table.
func (s *Server) vectorLayout() core.VectorLayout { return core.LayoutOf(s.data, s.layout.Tables()) }

// writeCheckpoint writes ck to path, Params as the vector block.
func writeCheckpoint(path string, layout core.VectorLayout, ck serverCheckpoint) error {
	params := ck.Params
	ck.Params = nil
	return core.WriteCheckpoint(path, ck, layout, []paramvec.Vector{params})
}

// readCheckpoint reads the server's file, written by writeCheckpoint: it
// refuses a file that recorded another spec (framework.CheckResume)
// before it decodes Params against the server's layout.
func (s *Server) readCheckpoint() (serverCheckpoint, error) {
	var ck serverCheckpoint
	_, vs, err := core.ReadCheckpoint(s.ckptPath, &ck)
	if err != nil {
		return ck, err
	}
	if err := framework.CheckResume(s.spec, ck.Spec); err != nil {
		return ck, fmt.Errorf("ps: %s: %w", s.ckptPath, err)
	}
	vecs, err := vs.Decode(s.vectorLayout())
	if err != nil {
		return ck, err
	}
	if len(vecs) != 1 {
		return ck, fmt.Errorf("ps: %s holds %d parameter vectors, want 1: %w", s.ckptPath, len(vecs), core.ErrCorruptCheckpoint)
	}
	ck.Params = vecs[0]
	return ck, nil
}

// LoadCheckpoint implements CheckpointStore: it checks the file's spec,
// restores parameters and optimizer state from the configured path, and
// returns the epoch cursor the run should continue from, or (-1, nil)
// when no checkpoint file exists. Per-worker push sequences reset on
// load — a resumed run spawns fresh workers whose sequences restart at 1.
func (s *Server) LoadCheckpoint() (int, error) {
	if s.ckptPath == "" {
		return 0, errors.New("ps: no checkpoint path configured on the server")
	}
	if _, err := os.Stat(s.ckptPath); os.IsNotExist(err) {
		return -1, nil
	}
	ck, err := s.readCheckpoint()
	if err != nil {
		return 0, err
	}
	// Params fit the server's tensors (readCheckpoint decoded them against
	// its layout). More than one optimizer state is a file written at 2+
	// lock stripes, whose states cover interleaved subsets of the tensors.
	if len(ck.Shards) != 1 {
		return 0, fmt.Errorf("ps: checkpoint has %d shards, server has 1", len(ck.Shards))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	paramvec.Restore(s.data, ck.Params)
	if !ck.Shards[0].Empty() {
		st, ok := s.opt.(optim.Stateful)
		if !ok {
			return 0, fmt.Errorf("ps: checkpoint carries %q optimizer state but the outer optimizer cannot restore state", ck.Shards[0].Name)
		}
		if err := st.RestoreState(s.data, ck.Shards[0]); err != nil {
			return 0, fmt.Errorf("ps: restore outer optimizer: %w", err)
		}
	}
	s.seqMu.Lock()
	s.lastSeq = map[int]int64{}
	s.seqMu.Unlock()
	return ck.Epoch, nil
}
