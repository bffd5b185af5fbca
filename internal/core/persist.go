package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"mamdr/internal/autograd"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/quality"
)

// Checkpoint files are written crash-safely: the payload sits in a
// fixed envelope (magic, format version, payload length, CRC32) and
// lands on disk via write-to-temp-file + fsync + atomic rename, so a
// reader never observes a half-written checkpoint under its final
// name, and a truncated or bit-flipped file is rejected with a clear
// error instead of decoding into garbage parameters.
//
// A v5 payload is a gob block of metadata followed by a vector block:
//
//	u64 gob length | gob(metadata, its vectors left out) |
//	u64 vector count | vector...
//
// Each vector is its segments in models.Layout order: a dense segment
// as its values; an embedding table as its stored row count, then for
// every row holding any bit other than +0 the row's u32 index and its
// values, rows ascending. Every integer and float64 is little-endian.
const (
	// checkpointMagic opens every checkpoint file (8 bytes).
	checkpointMagic = "MAMDRCKP"
	// checkpointVersion is the envelope version this build writes,
	// bumped on envelope/payload changes; v3 added the optional
	// quality-baseline block to Checkpoint payloads, v4 the Spec, v5
	// the vector block.
	checkpointVersion uint32 = 5
	// checkpointMinVersion is the oldest envelope this build reads (a
	// v2–v4 spec has no dataset digest); others are rejected loudly.
	checkpointMinVersion uint32 = 5
)

// headerLen is magic(8) + version(4) + payload length(8) + crc32(4).
const headerLen = 8 + 4 + 8 + 4

// ErrCorruptCheckpoint wraps every integrity failure (bad magic,
// truncation, CRC mismatch, a vector block its layout cannot read), so
// callers can distinguish "this file is damaged" from "this checkpoint
// belongs to a different model".
var ErrCorruptCheckpoint = errors.New("corrupt or truncated checkpoint")

// minBytes is the fewest bytes a vector of l takes in a vector block:
// its dense values and a row count per table.
func minBytes(l models.Layout) int {
	n := 0
	for t := range l.Rows {
		if l.IsTable(t) {
			n += 8
		} else {
			n += 8 * l.Rows[t] * l.Cols[t]
		}
	}
	return n
}

// appendBlock appends the vector block of vecs, each checked against
// l, to b.
func appendBlock(b []byte, l models.Layout, vecs []paramvec.Vector) ([]byte, error) {
	le := binary.LittleEndian
	b = le.AppendUint64(b, uint64(len(vecs)))
	for k, v := range vecs {
		if err := l.Fit(v); err != nil {
			return nil, fmt.Errorf("vector %d: %w", k, err)
		}
		for i, rows := range l.Rows {
			if !l.IsTable(i) {
				b = appendFloats(b, v[i])
				continue
			}
			if rows > math.MaxUint32 {
				return nil, fmt.Errorf("segment %d has %d rows, past a u32 index", i, rows)
			}
			cols, count, stored := l.Cols[i], len(b), 0
			b = le.AppendUint64(b, 0)
			for r := 0; r < rows; r++ {
				if row := v[i][r*cols : (r+1)*cols]; !paramvec.ZeroRow(row) {
					b = appendFloats(le.AppendUint32(b, uint32(r)), row)
					stored++
				}
			}
			le.PutUint64(b[count:], uint64(stored))
		}
	}
	return b, nil
}

// appendFloats appends xs to b as little-endian float64s.
func appendFloats(b []byte, xs []float64) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// getFloats fills dst from the little-endian float64s at the head of b.
func getFloats(dst []float64, b []byte) {
	b = b[:8*len(dst)]
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
	}
}

// WriteCheckpoint is the one checkpoint writer, core and PS shard
// alike: it atomically writes ck to path as a v5 checkpoint, its
// metadata gob-encoded, then Shared and every Specific, each checked
// against layout, as the vector block. It creates path's directory if
// it is missing, writes magic/version/length/CRC32 + payload into
// path.tmp, fsyncs, then renames over path. A crash at any point leaves
// either the previous complete file or a stray .tmp — never a torn
// checkpoint under the final name.
func WriteCheckpoint(path string, ck Checkpoint, layout models.Layout) error {
	vecs := append([]paramvec.Vector{ck.Shared}, ck.Specific...)
	ck.Shared, ck.Specific = nil, nil
	var gobBlock bytes.Buffer
	if err := gob.NewEncoder(&gobBlock).Encode(ck); err != nil {
		return fmt.Errorf("core: encode %s: %w", path, err)
	}
	// Room for the header, the gob block and every vector's dense
	// values and row counts; stored rows grow it.
	file := make([]byte, headerLen, headerLen+8+gobBlock.Len()+8+len(vecs)*minBytes(layout))
	file = binary.LittleEndian.AppendUint64(file, uint64(gobBlock.Len()))
	file = append(file, gobBlock.Bytes()...)
	file, err := appendBlock(file, layout, vecs)
	if err != nil {
		return fmt.Errorf("core: encode %s: %w", path, err)
	}
	payload := file[headerLen:]
	copy(file[:8], checkpointMagic)
	binary.LittleEndian.PutUint32(file[8:12], checkpointVersion)
	binary.LittleEndian.PutUint64(file[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(file[20:24], crc32.ChecksumIEEE(payload))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("core: %w", err)
	}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: create %s: %w", tmp, err)
	}
	_, werr := f.Write(file)
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
	// CRC is the IEEE CRC32 of the payload.
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
// without decoding the payload, so a damaged snapshot can be rejected
// before anything is built from it.
func EnvelopeInfo(path string) (Envelope, error) {
	env, _, err := readEnvelope(path)
	return env, err
}

// ReadState is the one checkpoint reader, core and PS shard alike: it
// verifies the file at path and decodes its gob block, everything but
// the vectors, which Decode (or Restore) reads once the layout they
// need is known — the Spec read here may be what builds the model. Gob
// decodes fields by name, leaving those the payload lacks at their
// zero value.
func ReadState(path string) (Checkpoint, Envelope, error) {
	env, payload, err := readEnvelope(path)
	if err != nil {
		return Checkpoint{}, Envelope{}, err
	}
	if len(payload) < 8 || binary.LittleEndian.Uint64(payload) > uint64(len(payload)-8) {
		return Checkpoint{}, Envelope{}, fmt.Errorf("core: %s: gob block runs past the payload: %w", path, ErrCorruptCheckpoint)
	}
	n := 8 + int(binary.LittleEndian.Uint64(payload))
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload[8:n])).Decode(&ck); err != nil {
		return Checkpoint{}, Envelope{}, fmt.Errorf("core: decode %s: %w: %v", path, ErrCorruptCheckpoint, err)
	}
	ck.vectors = vectorBlock{path: path, b: payload[n:]}
	return ck, env, nil
}

// vectorBlock is a checkpoint's vector block, verified by its
// envelope's CRC and not yet decoded.
type vectorBlock struct {
	path string
	b    []byte
}

// decode is the one vector-block decoder: every vector the block holds
// (θ_S at least), against layout — with dense, each at full shape in
// one backing (Sparse.Dense, unstored rows +0); else as the file stores
// it, dense segments and each table's stored rows (Sparse.Tables).
// Every count is checked against the bytes left before it sizes
// anything, so a damaged or crafted block is refused with
// ErrCorruptCheckpoint and allocations follow the block's bytes.
func (vb vectorBlock) decode(layout models.Layout, dense bool) ([]paramvec.Sparse, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("core: %s: vector block %s: %w", vb.path, fmt.Sprintf(format, args...), ErrCorruptCheckpoint)
	}
	b := vb.b
	if len(b) < 8 {
		return nil, corrupt("has no vector count")
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n == 0 || n > uint64(len(b)/max(minBytes(layout), 1)) {
		return nil, corrupt("promises %d vectors in %d bytes", n, len(b))
	}
	size := 0 // the values of one vector's backing
	for i, rows := range layout.Rows {
		if dense || !layout.IsTable(i) {
			size += rows * layout.Cols[i]
		}
	}
	vecs := make([]paramvec.Sparse, n)
	for k := range vecs {
		backing := make([]float64, size)
		v := paramvec.Sparse{Dense: make(paramvec.Vector, layout.NumTensors())}
		if !dense {
			v.Tables = make([]paramvec.Table, layout.NumTensors())
		}
		for i, rows := range layout.Rows {
			cols, table := layout.Cols[i], layout.IsTable(i)
			if n := rows * cols; dense || !table {
				v.Dense[i], backing = backing[:n:n], backing[n:]
			}
			if !table {
				if len(b) < 8*len(v.Dense[i]) {
					return nil, corrupt("ends inside vector %d segment %d", k, i)
				}
				getFloats(v.Dense[i], b)
				b = b[8*len(v.Dense[i]):]
				continue
			}
			if len(b) < 8 {
				return nil, corrupt("ends before vector %d table %d's row count", k, i)
			}
			stored := binary.LittleEndian.Uint64(b)
			b = b[8:]
			rowBytes := 4 + 8*cols
			if stored > uint64(rows) || stored > uint64(len(b)/rowBytes) {
				return nil, corrupt("vector %d table %d stores %d rows of %d in %d bytes", k, i, stored, rows, len(b))
			}
			var t paramvec.Table
			if !dense {
				t = paramvec.Table{Rows: rows, Cols: cols, IDs: make([]uint32, stored), Values: make([]float64, int(stored)*cols)}
				v.Tables[i] = t
			}
			for j, last := 0, -1; j < int(stored); j++ {
				r := int(binary.LittleEndian.Uint32(b))
				if r <= last || r >= rows {
					return nil, corrupt("vector %d table %d row %d after row %d of %d", k, i, r, last, rows)
				}
				var row []float64
				if dense {
					row = v.Dense[i][r*cols : (r+1)*cols]
				} else {
					t.IDs[j], row = uint32(r), t.Values[j*cols:(j+1)*cols]
				}
				getFloats(row, b[4:])
				b, last = b[rowBytes:], r
			}
		}
		vecs[k] = v
	}
	if len(b) != 0 {
		return nil, corrupt("has %d bytes past its last vector", len(b))
	}
	return vecs, nil
}

// Checkpoint is the one checkpoint record, of a trained MAMDR state and
// of a PS shard alike: θ_S and every θ_i (the vector block, in
// Model.Parameters() order), the framework.Spec it was trained on, and
// an optional resume cursor (completed-epoch count and the DN outer
// optimizer's state) for crash-safe training restarts; the gob block
// carries all but θ. A PS shard's record holds its tensors as Shared,
// no Specific, and the shard's name as ModelName.
type Checkpoint struct {
	// ModelName records the structure's display name, as a guard
	// against loading into a mismatched model.
	ModelName string
	// Spec is the training run's dataset, model and hyperparameters.
	Spec     framework.Spec
	Shared   paramvec.Vector
	Specific []paramvec.Vector
	// Epoch is the number of fully completed training epochs when the
	// checkpoint was taken; -1 marks a final state with no resume
	// cursor (the State.Save format).
	Epoch int
	// Outer is the outer optimizer's (DN's, or a PS shard's) accumulated
	// state at the epoch boundary (empty when Epoch is -1 or the
	// optimizer is stateless).
	Outer optim.State
	// Quality is the model's quality baseline — per-domain validation
	// score distributions and eval metrics — frozen at save time so
	// serving can measure live-traffic drift against it. Nil in saves
	// that skipped profiling; loaders treat nil as "drift detection
	// disabled", never an error.
	Quality *quality.Baseline
	// vectors is the file's vector block until Decode.
	vectors vectorBlock
}

// Decode sets Shared and Specific from the file's vector block, each at
// layout's full shape. After a nil error every vector fits layout.
func (ck *Checkpoint) Decode(layout models.Layout) error {
	vecs, err := ck.vectors.decode(layout, true)
	if err != nil {
		return err
	}
	ck.Shared, ck.Specific, ck.vectors = vecs[0].Dense, make([]paramvec.Vector, len(vecs)-1), vectorBlock{}
	for d, v := range vecs[1:] {
		ck.Specific[d] = v.Dense
	}
	return nil
}

// DecodeRows decodes the file's vector block against layout into θ_S,
// scattered, and every θ_i as the file stores it (paramvec.Sparse),
// leaving the checkpoint as it is. After a nil error every vector fits
// layout.
func (ck *Checkpoint) DecodeRows(layout models.Layout) (paramvec.Vector, []paramvec.Sparse, error) {
	vecs, err := ck.vectors.decode(layout, false)
	if err != nil {
		return nil, nil, err
	}
	return vecs[0].Scatter(), vecs[1:], nil
}

// Restore is every checkpoint load, a core state's and a PS shard's
// alike. In order it refuses a record trained on a spec other than run
// (framework.CheckResume; a load that takes the file's spec passes
// ck.Spec) and a record named other than name, decodes the vectors
// against layout, copies Shared into params and, with a non-nil outer,
// restores the optimizer state the record carries.
func (ck *Checkpoint) Restore(run framework.Spec, name string, params []*autograd.Tensor, layout models.Layout, outer optim.Optimizer) error {
	if err := framework.CheckResume(run, ck.Spec); err != nil {
		return fmt.Errorf("core: %s: %w", ck.vectors.path, err)
	}
	if ck.ModelName != name {
		return fmt.Errorf("core: %s: checkpoint is for %q, not %q", ck.vectors.path, ck.ModelName, name)
	}
	if err := ck.Decode(layout); err != nil {
		return err
	}
	paramvec.Restore(params, ck.Shared)
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
	return s.write(path, Checkpoint{Epoch: -1, Quality: b})
}

// SaveTraining writes a resumable epoch-boundary checkpoint: parameters
// plus the completed-epoch cursor and the outer optimizer's state, so a
// killed run resumed from it replays the exact trajectory of an
// uninterrupted one. Pass a nil outer for optimizer-free phases.
func (s *State) SaveTraining(path string, epoch int, outer optim.Optimizer) error {
	ck := Checkpoint{Epoch: epoch}
	if st, ok := outer.(optim.Stateful); ok {
		ck.Outer = st.CaptureState(s.Model.Parameters())
	}
	return s.write(path, ck)
}

// write is every core save: ck's metadata with the state's name, Spec,
// θ_S and every θ_i.
func (s *State) write(path string, ck Checkpoint) error {
	ck.ModelName, ck.Spec, ck.Shared, ck.Specific = s.Model.Name(), s.Spec, s.Shared, s.Specific
	return WriteCheckpoint(path, ck, models.LayoutOf(s.Model.Parameters(), models.EmbeddingTablesOf(s.Model)))
}

// Load reads a checkpoint saved by Save (or SaveTraining) into the
// state, validating that the vectors align with the state's model
// parameters. The state's Model must already be constructed with the
// same structure and dataset schema as at save time.
func (s *State) Load(path string) error {
	ck, _, err := ReadState(path)
	if err == nil {
		err = s.Install(ck, ck.Spec, nil)
	}
	return err
}

// resume is Load for a training run of the given spec: it refuses a
// checkpoint that recorded another spec before anything of it is
// checked against the model, rebinds the outer optimizer's saved state,
// keeps the run's spec (its epoch cap may be another), and returns the
// completed-epoch cursor the run continues from (-1 for a final,
// Save-written state).
func (s *State) resume(path string, spec framework.Spec, outer optim.Optimizer) (epoch int, err error) {
	ck, _, err := ReadState(path)
	if err == nil {
		err = s.Install(ck, spec, outer)
	}
	return ck.Epoch, err
}

// Install restores a checkpoint read by ReadState into the state's
// model as a record of run (Checkpoint.Restore, against the model's
// name and layout, with outer) and only then takes its vectors and run
// as the state's Spec. A caller that needs the Spec to build the model
// reads the file once and installs it, passing ck.Spec, into that
// model.
func (s *State) Install(ck Checkpoint, run framework.Spec, outer optim.Optimizer) error {
	params := s.Model.Parameters()
	if err := ck.Restore(run, s.Model.Name(), params, models.LayoutOf(params, models.EmbeddingTablesOf(s.Model)), outer); err != nil {
		return err
	}
	s.Shared, s.Specific, s.Spec = ck.Shared, ck.Specific, run
	return nil
}
