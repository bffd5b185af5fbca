package ps

import (
	"errors"
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

// shardRecord is the ModelName of every PS shard's core.Checkpoint: a
// shard server loads no core state's file, and a core state no shard's.
// A shard file of the older shape has no name, so it is refused too
// instead of being loaded without the optimizer state gob would drop.
const shardRecord = "PS shard"

// SetCheckpoint configures where SaveCheckpoint/LoadCheckpoint persist
// the server's snapshot, and the spec of the run it hosts: every save
// records it, and a load refuses a file that recorded another
// (framework.CheckResume). Set before serving traffic.
func (s *Server) SetCheckpoint(path string, spec framework.Spec) { s.ckptPath, s.spec = path, spec }

// SaveCheckpoint implements CheckpointStore: it writes the server's
// tensors (as the record's Shared), the outer optimizer's state and the
// completed-epoch cursor to the configured path crash-safely (temp file
// + fsync + rename, CRC-guarded envelope), all three read under one
// hold of the lock.
func (s *Server) SaveCheckpoint(epoch int) error {
	if s.ckptPath == "" {
		return errors.New("ps: no checkpoint path configured on the server")
	}
	ck := core.Checkpoint{ModelName: shardRecord, Spec: s.spec, Epoch: epoch}
	s.mu.Lock()
	ck.Shared = paramvec.Snapshot(s.data)
	if st, ok := s.opt.(optim.Stateful); ok {
		ck.Outer = st.CaptureState(s.data)
	}
	s.mu.Unlock()
	return core.WriteCheckpoint(s.ckptPath, ck, s.layout)
}

// LoadCheckpoint implements CheckpointStore: core.Checkpoint.Restore of
// the configured file under the server's lock, then the epoch cursor
// the run continues from; (-1, nil) when no file exists. Push sequences
// reset — a resumed run's fresh workers restart theirs at 1.
func (s *Server) LoadCheckpoint() (int, error) {
	if s.ckptPath == "" {
		return 0, errors.New("ps: no checkpoint path configured on the server")
	}
	if _, err := os.Stat(s.ckptPath); os.IsNotExist(err) {
		return -1, nil
	}
	ck, _, err := core.ReadState(s.ckptPath)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ck.Restore(s.spec, shardRecord, s.data, s.layout, s.opt); err != nil {
		return 0, err
	}
	s.seqMu.Lock()
	s.lastSeq = map[int]int64{}
	s.seqMu.Unlock()
	return ck.Epoch, nil
}
