package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
)

// TestEnvelopeInfoMatchesFile pins the publication key: EnvelopeInfo
// reports the version this build writes and the CRC of the actual
// payload bytes, without decoding the payload.
func TestEnvelopeInfoMatchesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.ckpt")
	if err := WriteCheckpoint(path, Checkpoint{ModelName: "ab"}, models.Layout{}); err != nil {
		t.Fatal(err)
	}
	env, err := EnvelopeInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != checkpointVersion {
		t.Fatalf("Version = %d, want %d", env.Version, checkpointVersion)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[headerLen:]
	if env.PayloadBytes != uint64(len(payload)) {
		t.Fatalf("PayloadBytes = %d, file has %d", env.PayloadBytes, len(payload))
	}
	if want := crc32.ChecksumIEEE(payload); env.CRC != want {
		t.Fatalf("CRC = %08x, payload hashes to %08x", env.CRC, want)
	}
}

// TestSaveGobCreatesDirectory: a checkpoint path whose directories do
// not exist yet (a fresh -checkpoint-dir) is written, not refused.
func TestSaveGobCreatesDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "c.ckpt")
	if err := WriteCheckpoint(path, Checkpoint{ModelName: "ab"}, models.Layout{}); err != nil {
		t.Fatal(err)
	}
	ck, _, err := ReadState(path)
	if got := ck.ModelName; err != nil || len(got) != 2 {
		t.Fatalf("ReadState = %v, %v", got, err)
	}
}

// TestEnvelopeInfoRejectsDamage is the reject-before-publish property:
// every way a snapshot file can be damaged — flipped payload bit,
// truncation, wrong magic — surfaces as ErrCorruptCheckpoint from the
// envelope check alone, so a publisher never builds from a bad file.
func TestEnvelopeInfoRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	if err := WriteCheckpoint(good, Checkpoint{ModelName: "MLP", Epoch: 3}, models.Layout{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func([]byte) []byte{
		"flipped payload bit": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerLen+2] ^= 0x40
			return c
		},
		"truncated payload": func(b []byte) []byte {
			return append([]byte(nil), b[:len(b)-3]...)
		},
		"truncated header": func(b []byte) []byte {
			return append([]byte(nil), b[:headerLen-2]...)
		},
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c[:8], "NOTMAMDR")
			return c
		},
	}
	for name, mutate := range damage {
		path := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := EnvelopeInfo(path); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: EnvelopeInfo = %v, want ErrCorruptCheckpoint", name, err)
		}
	}

	// An out-of-range envelope version is a capability mismatch, not
	// corruption — it fails, but with a version message.
	future := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(future[8:12], checkpointVersion+1)
	path := filepath.Join(dir, "future.ckpt")
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := EnvelopeInfo(path); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("future version: EnvelopeInfo = %v, want a version error", err)
	}

	if _, err := EnvelopeInfo(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file: EnvelopeInfo succeeded")
	}
}

// FuzzCheckpointEnvelope feeds arbitrary bytes to readEnvelope, the one
// function that opens and verifies a checkpoint file. It must never
// panic; what it accepts must be exactly a header followed by the
// payload that header describes; and what it rejects must be named
// either damage (ErrCorruptCheckpoint) or a format version this build
// does not read. An accepted payload then decodes against toyLayout to
// an error or to vectors that fit it, and so does the input's payload
// sealed again under a sound v5 header. The seeds run under plain `go test`; to fuzz past them
// pass -fuzzminimizetime=0, because the file round trip makes coverage
// noisy and the default minimizer spends its whole budget chasing it.
func FuzzCheckpointEnvelope(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "fuzz.ckpt")
	seed := func(version uint32, payload any) []byte {
		writeEnvelope(f, path, version, payload)
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	// v2–v4 files: versions this build no longer reads.
	v2 := seed(2, Checkpoint{ModelName: "MLP", Epoch: -1})
	v3 := seed(3, Checkpoint{ModelName: "MLP", Epoch: -1})
	spec := framework.Spec{Preset: "taobao-10", Samples: 10000, Seed: 1, Model: "mlp", EmbDim: 8}
	v4 := seed(4, Checkpoint{ModelName: "MLP", Epoch: -1, Spec: spec})
	// A PS shard file of the older shape, with the spec its host
	// recorded.
	shard := seed(4, struct {
		Params paramvec.Vector
		Shards []optim.State
		Epoch  int
		Spec   framework.Spec
	}{Params: paramvec.Vector{{0.5, -1}}, Shards: []optim.State{{}}, Epoch: 2, Spec: spec})
	mutated := func(mutate func(b []byte)) []byte {
		c := append([]byte(nil), v3...)
		mutate(c)
		return c
	}
	f.Add(v2)
	f.Add(v3)
	f.Add(v4)
	f.Add(shard)
	f.Add(v3[:headerLen-2])                                                           // truncated header
	f.Add(mutated(func(b []byte) { copy(b[:8], "NOTMAMDR") }))                        // bad magic
	f.Add(mutated(func(b []byte) { binary.LittleEndian.PutUint64(b[12:20], 1<<62) })) // length far past the file
	f.Add(mutated(func(b []byte) { b[headerLen+2] ^= 0x40 }))                         // flipped payload byte
	f.Add(mutated(func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 1) }))      // version below range
	f.Add(mutated(func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 1<<31) }))  // version above range
	f.Add(v3[:len(v3)-3])                                                             // truncated payload
	f.Add([]byte{})
	// v5: a core file of the trained shape, a PS shard file, and vector
	// blocks that promise what the file cannot hold.
	v5 := func(meta any, block []byte) []byte {
		writeRawEnvelope(f, path, 5, v5Payload(f, meta, block))
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	if err := WriteCheckpoint(path, toyCheckpoint(Checkpoint{ModelName: "MLP", Epoch: 3, Spec: spec}), toyLayout); err != nil {
		f.Fatal(err)
	}
	trained, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trained)
	if err := WriteCheckpoint(path, Checkpoint{ModelName: "PS shard", Shared: toyVectors()[0], Epoch: 2, Spec: spec}, toyLayout); err != nil {
		f.Fatal(err)
	}
	psShard, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(psShard)
	crafted := craftedBlocks()
	for _, name := range []string{"row past its table", "rows past the file", "2^40 vectors"} {
		f.Add(v5(Checkpoint{ModelName: "MLP", Epoch: -1}, crafted[name]))
	}
	// A core file whose spec records the dataset digest and the fit's
	// hyperparameters, as every mamdr-train file does.
	run := framework.Config{Spec: spec, LR: 0.05, OuterOpt: "adagrad", Epochs: 3}
	run.Spec.DataSHA256 = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	if err := WriteCheckpoint(path, toyCheckpoint(Checkpoint{ModelName: "MLP", Epoch: 3, Spec: run.RunSpec("mamdr")}), toyLayout); err != nil {
		f.Fatal(err)
	}
	recorded, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)

	// decodes requires the file at path to decode against toyLayout to
	// an error or to vectors that fit it, never to a panic.
	decodes := func(t *testing.T) {
		ck, _, err := ReadState(path)
		if err == nil {
			err = ck.Decode(toyLayout)
		}
		if err != nil {
			return
		}
		if ferr := toyLayout.Fit(ck.Shared); ferr != nil {
			t.Fatalf("decoded θ_S: %v", ferr)
		}
		for d, v := range ck.Specific {
			if ferr := toyLayout.Fit(v); ferr != nil {
				t.Fatalf("decoded θ_%d: %v", d, ferr)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		env, payload, err := readEnvelope(path)
		if err != nil {
			// A readable header with good magic and a foreign version is a
			// capability mismatch; every other rejection is damage.
			foreign := false
			if len(data) >= headerLen && string(data[:8]) == checkpointMagic {
				v := binary.LittleEndian.Uint32(data[8:12])
				foreign = v < checkpointMinVersion || v > checkpointVersion
			}
			if errors.Is(err, ErrCorruptCheckpoint) == foreign {
				t.Fatalf("foreign version = %v, but the error is: %v", foreign, err)
			}
		} else {
			if env.Version < checkpointMinVersion || env.Version > checkpointVersion {
				t.Fatalf("accepted envelope v%d", env.Version)
			}
			if !bytes.Equal(payload, data[headerLen:]) || env.PayloadBytes != uint64(len(payload)) {
				t.Fatalf("accepted %d payload bytes of a %d-byte file promising %d", len(payload), len(data), env.PayloadBytes)
			}
			if env.CRC != crc32.ChecksumIEEE(payload) {
				t.Fatalf("accepted a payload hashing to %08x under CRC %08x", crc32.ChecksumIEEE(payload), env.CRC)
			}
			decodes(t)
		}
		// A mutated payload rarely keeps its CRC; sealed again under a
		// sound v5 header it reaches the decoders too.
		if len(data) >= headerLen {
			writeRawEnvelope(t, path, checkpointVersion, data[headerLen:])
			decodes(t)
		}
	})
}
