package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"mamdr/internal/autograd"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/quality"
)

// Checkpoint files are written crash-safely: the payload is gob-encoded
// into a fixed envelope (magic, format version, payload length, CRC32)
// and lands on disk via write-to-temp-file + fsync + atomic rename, so
// a reader never observes a half-written checkpoint under its final
// name, and a truncated or bit-flipped file is rejected with a clear
// error instead of decoding into garbage parameters.
const (
	// checkpointMagic opens every checkpoint file (8 bytes).
	checkpointMagic = "MAMDRCKP"
	// checkpointVersion is the envelope version this build writes,
	// bumped on envelope/payload changes; v3 added the optional
	// quality-baseline block to Checkpoint payloads, v4 the Spec.
	checkpointVersion uint32 = 4
	// checkpointMinVersion is the oldest envelope this build still
	// reads. v2 (pre-quality) payloads decode with a nil Quality
	// baseline — drift detection is disabled, not fatal — and pre-v4
	// payloads with a zero Spec. Versions outside [min, current] are
	// rejected loudly.
	checkpointMinVersion uint32 = 2
)

// headerLen is magic(8) + version(4) + payload length(8) + crc32(4).
const headerLen = 8 + 4 + 8 + 4

// ErrCorruptCheckpoint wraps every integrity failure (bad magic,
// truncation, CRC mismatch), so callers can distinguish "this file is
// damaged" from "this checkpoint belongs to a different model".
var ErrCorruptCheckpoint = errors.New("corrupt or truncated checkpoint")

// SaveGob atomically writes v to path in the checkpoint envelope:
// encode to memory, create path's directory if it is missing, write
// magic/version/length/CRC32 + payload into path.tmp, fsync, then rename
// over path. A crash at any point leaves either the previous complete
// file or a stray .tmp — never a torn checkpoint under the final name.
func SaveGob(path string, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("core: encode %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("core: %w", err)
	}

	var head [headerLen]byte
	copy(head[:8], checkpointMagic)
	binary.LittleEndian.PutUint32(head[8:12], checkpointVersion)
	binary.LittleEndian.PutUint64(head[12:20], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(head[20:24], crc32.ChecksumIEEE(payload.Bytes()))

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: create %s: %w", tmp, err)
	}
	_, werr := f.Write(head[:])
	if werr == nil {
		_, werr = f.Write(payload.Bytes())
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: write %s: %w", tmp, werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: commit %s: %w", path, err)
	}
	// Durability of the rename itself: fsync the directory (best
	// effort — not all filesystems support it).
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// Envelope describes a checkpoint file's identity: the format version
// it was written with and the CRC32 its payload hashes to. The
// (Version, CRC) pair is what the serving fleet keys a snapshot
// publication to — two files with the same pair carry bit-identical
// parameters.
type Envelope struct {
	// Version is the envelope format version (checkpointVersion at
	// write time).
	Version uint32
	// CRC is the IEEE CRC32 of the gob payload.
	CRC uint32
	// PayloadBytes is the payload length the header promises.
	PayloadBytes uint64
}

// readEnvelope is the one verified checkpoint read: it loads the file,
// checks magic, version range, the promised payload length against the
// bytes actually present, and the CRC over them, and returns the
// envelope with the still-encoded payload. Integrity failures wrap
// ErrCorruptCheckpoint; a version outside [checkpointMinVersion,
// checkpointVersion] fails loudly without it. Nothing is sized from the
// header: the only allocation is the file's own length.
func readEnvelope(path string) (Envelope, []byte, error) {
	file, err := os.ReadFile(path)
	if err != nil {
		return Envelope{}, nil, fmt.Errorf("core: read %s: %w", path, err)
	}
	if len(file) < headerLen {
		return Envelope{}, nil, fmt.Errorf("core: %s: header unreadable (%d bytes): %w", path, len(file), ErrCorruptCheckpoint)
	}
	head, payload := file[:headerLen], file[headerLen:]
	if string(head[:8]) != checkpointMagic {
		return Envelope{}, nil, fmt.Errorf("core: %s: not a MAMDR checkpoint (bad magic): %w", path, ErrCorruptCheckpoint)
	}
	env := Envelope{
		Version:      binary.LittleEndian.Uint32(head[8:12]),
		PayloadBytes: binary.LittleEndian.Uint64(head[12:20]),
		CRC:          binary.LittleEndian.Uint32(head[20:24]),
	}
	if env.Version < checkpointMinVersion || env.Version > checkpointVersion {
		return Envelope{}, nil, fmt.Errorf("core: %s: checkpoint format v%d, this build reads v%d..v%d",
			path, env.Version, checkpointMinVersion, checkpointVersion)
	}
	if uint64(len(payload)) != env.PayloadBytes {
		return Envelope{}, nil, fmt.Errorf("core: %s: payload is %d bytes, header promises %d (truncated write?): %w",
			path, len(payload), env.PayloadBytes, ErrCorruptCheckpoint)
	}
	if crc32.ChecksumIEEE(payload) != env.CRC {
		return Envelope{}, nil, fmt.Errorf("core: %s: CRC mismatch (corrupted on disk): %w", path, ErrCorruptCheckpoint)
	}
	return env, payload, nil
}

// EnvelopeInfo verifies a checkpoint file and returns its envelope
// without gob-decoding the payload, so a damaged snapshot can be
// rejected before anything is built from it.
func EnvelopeInfo(path string) (Envelope, error) {
	env, _, err := readEnvelope(path)
	return env, err
}

// LoadGob reads a file written by SaveGob into v, verifying the
// envelope before decoding.
func LoadGob(path string, v any) error {
	_, err := LoadGobEnvelope(path, v)
	return err
}

// LoadGobEnvelope is LoadGob returning the envelope the file was
// written with — its CRC keys a publication, and its version lets
// callers negotiate payload capabilities: gob's field-by-name decoding
// leaves fields absent from older payloads at their zero value (e.g. a
// v2 checkpoint yields a nil quality baseline).
func LoadGobEnvelope(path string, v any) (Envelope, error) {
	env, payload, err := readEnvelope(path)
	if err != nil {
		return Envelope{}, err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return Envelope{}, fmt.Errorf("core: decode %s: %w: %v", path, ErrCorruptCheckpoint, err)
	}
	return env, nil
}

// Spec records what a state was trained on, so its checkpoint alone
// rebuilds the dataset (the JSON file at DataPath, or Preset generated
// at Samples and Seed) and the model (the models.New key Model at
// EmbDim and Seed). The zero Spec records nothing.
type Spec struct {
	Preset   string
	Samples  int
	DataPath string
	Seed     int64
	Model    string
	EmbDim   int
}

// Checkpoint is the serializable form of a trained MAMDR state: the
// shared parameter vector and every domain's specific vector, the Spec
// it was trained on, plus an optional resume cursor (completed-epoch
// count and the DN outer optimizer's state) for crash-safe training
// restarts. The vectors align with Model.Parameters() order, which is
// stable for a given structure and dataset schema; Spec names both.
type Checkpoint struct {
	// ModelName records the structure's display name, as a guard
	// against loading into a mismatched model.
	ModelName string
	// Spec is the training run's dataset and model (zero before v4).
	Spec     Spec
	Shared   paramvec.Vector
	Specific []paramvec.Vector
	// Epoch is the number of fully completed training epochs when the
	// checkpoint was taken; -1 marks a final state with no resume
	// cursor (the State.Save format).
	Epoch int
	// Outer is the DN outer optimizer's accumulated state at the epoch
	// boundary (empty when Epoch is -1 or the optimizer is stateless).
	Outer optim.State
	// Quality is the model's quality baseline — per-domain validation
	// score distributions and eval metrics — frozen at save time so
	// serving can measure live-traffic drift against it. Nil in v2
	// (pre-quality) checkpoints and in saves that skipped profiling;
	// loaders treat nil as "drift detection disabled", never an error.
	Quality *quality.Baseline
}

// Save writes the state's parameters to path crash-safely (atomic
// temp-file + rename, versioned and CRC-guarded envelope), with no
// quality baseline.
func (s *State) Save(path string) error {
	return s.SaveWithBaseline(path, nil)
}

// SaveWithBaseline is Save with a quality baseline frozen into the
// envelope, so a serving process loading this checkpoint can detect
// score/label drift against the model's validation-time profile.
func (s *State) SaveWithBaseline(path string, b *quality.Baseline) error {
	return SaveGob(path, Checkpoint{
		ModelName: s.Model.Name(),
		Spec:      s.Spec,
		Shared:    s.Shared,
		Specific:  s.Specific,
		Epoch:     -1,
		Quality:   b,
	})
}

// SaveTraining writes a resumable epoch-boundary checkpoint: parameters
// plus the completed-epoch cursor and the outer optimizer's state, so a
// killed run resumed from it replays the exact trajectory of an
// uninterrupted one. Pass a nil outer for optimizer-free phases.
func (s *State) SaveTraining(path string, epoch int, outer optim.Optimizer) error {
	ck := Checkpoint{
		ModelName: s.Model.Name(),
		Spec:      s.Spec,
		Shared:    s.Shared,
		Specific:  s.Specific,
		Epoch:     epoch,
	}
	if st, ok := outer.(optim.Stateful); ok {
		ck.Outer = st.CaptureState(s.Model.Parameters())
	}
	return SaveGob(path, ck)
}

// Load reads a checkpoint saved by Save (or SaveTraining) into the
// state, validating that the vectors align with the state's model
// parameters. The state's Model must already be constructed with the
// same structure and dataset schema as at save time.
func (s *State) Load(path string) error {
	_, _, err := s.load(path, nil)
	return err
}

// LoadWithBaseline is Load returning the file's envelope (one read
// serves both) and the quality baseline frozen into the checkpoint. A
// nil baseline means drift detection is unavailable
// for this model: the checkpoint predates the quality block (v2
// envelope) or was saved without profiling — the caller should log and
// count the degraded load (Tracker.SetBaseline(nil) does the counting)
// and carry on serving.
func (s *State) LoadWithBaseline(path string) (*quality.Baseline, Envelope, error) {
	ck, env, err := s.load(path, nil)
	return ck.Quality, env, err
}

// LoadTraining is Load plus resume-cursor recovery: it restores the
// parameters, rebinds the outer optimizer's saved state, and returns
// the completed-epoch count the run should continue from. Loading a
// final checkpoint (Save) yields epoch -1.
func (s *State) LoadTraining(path string, outer optim.Optimizer) (epoch int, err error) {
	ck, _, err := s.load(path, outer)
	return ck.Epoch, err
}

// load is the one State reader: a single verified file read, checked
// against the state's model before anything is installed.
func (s *State) load(path string, outer optim.Optimizer) (ck Checkpoint, env Envelope, err error) {
	if env, err = LoadGobEnvelope(path, &ck); err == nil {
		err = s.Install(ck, outer)
	}
	return ck, env, err
}

// Install checks a checkpoint decoded by LoadGobEnvelope against the
// state's model — the structure's name and every vector's shape — and
// only then installs its vectors and Spec, and with a non-nil outer the
// optimizer state it carries. A caller that needs the Spec to build the
// model decodes the file once and installs the same vectors.
func (s *State) Install(ck Checkpoint, outer optim.Optimizer) error {
	if ck.ModelName != s.Model.Name() {
		return fmt.Errorf("core: checkpoint is for model %q, state has %q", ck.ModelName, s.Model.Name())
	}
	params := s.Model.Parameters()
	if err := fits(ck.Shared, params); err != nil {
		return fmt.Errorf("core: shared vector: %w", err)
	}
	for d, v := range ck.Specific {
		if err := fits(v, params); err != nil {
			return fmt.Errorf("core: specific vector %d: %w", d, err)
		}
	}
	s.Shared = ck.Shared
	s.Specific = ck.Specific
	s.Spec = ck.Spec
	paramvec.Restore(params, s.Shared)
	if outer != nil && !ck.Outer.Empty() {
		st, ok := outer.(optim.Stateful)
		if !ok {
			return fmt.Errorf("core: checkpoint carries %q optimizer state but the outer optimizer cannot restore state", ck.Outer.Name)
		}
		if err := st.RestoreState(params, ck.Outer); err != nil {
			return fmt.Errorf("core: restore outer optimizer: %w", err)
		}
	}
	return nil
}

// fits reports whether v has one segment per tensor, each of the
// tensor's size.
func fits(v paramvec.Vector, params []*autograd.Tensor) error {
	if len(v) != len(params) {
		return fmt.Errorf("%d segments, model has %d tensors", len(v), len(params))
	}
	for i, p := range params {
		if len(v[i]) != len(p.Data) {
			return fmt.Errorf("segment %d has %d values, tensor has %d", i, len(v[i]), len(p.Data))
		}
	}
	return nil
}
