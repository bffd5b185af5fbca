package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestEnvelopeInfoMatchesFile pins the publication key: EnvelopeInfo
// reports the version this build writes and the CRC of the actual
// payload bytes, without decoding the payload.
func TestEnvelopeInfoMatchesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.ckpt")
	if err := SaveGob(path, map[string]int{"a": 1, "b": 2}); err != nil {
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

// TestEnvelopeInfoRejectsDamage is the reject-before-publish property:
// every way a snapshot file can be damaged — flipped payload bit,
// truncation, wrong magic — surfaces as ErrCorruptCheckpoint from the
// envelope check alone, so a publisher never builds from a bad file.
func TestEnvelopeInfoRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	if err := SaveGob(good, []float64{1, 2, 3}); err != nil {
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
// does not read. The seeds run under plain `go test`; to fuzz past them
// pass -fuzzminimizetime=0, because the file round trip makes coverage
// noisy and the default minimizer spends its whole budget chasing it.
func FuzzCheckpointEnvelope(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "fuzz.ckpt")
	seed := func(version uint32) []byte {
		writeEnvelope(f, path, version, Checkpoint{ModelName: "MLP", Epoch: -1})
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	v2, v3 := seed(2), seed(3)
	mutated := func(mutate func(b []byte)) []byte {
		c := append([]byte(nil), v3...)
		mutate(c)
		return c
	}
	f.Add(v2)
	f.Add(v3)
	f.Add(v3[:headerLen-2])                                                           // truncated header
	f.Add(mutated(func(b []byte) { copy(b[:8], "NOTMAMDR") }))                        // bad magic
	f.Add(mutated(func(b []byte) { binary.LittleEndian.PutUint64(b[12:20], 1<<62) })) // length far past the file
	f.Add(mutated(func(b []byte) { b[headerLen+2] ^= 0x40 }))                         // flipped payload byte
	f.Add(mutated(func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 1) }))      // version below range
	f.Add(mutated(func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 1<<31) }))  // version above range
	f.Add(v3[:len(v3)-3])                                                             // truncated payload
	f.Add([]byte{})

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
			return
		}
		if env.Version < checkpointMinVersion || env.Version > checkpointVersion {
			t.Fatalf("accepted envelope v%d", env.Version)
		}
		if !bytes.Equal(payload, data[headerLen:]) || env.PayloadBytes != uint64(len(payload)) {
			t.Fatalf("accepted %d payload bytes of a %d-byte file promising %d", len(payload), len(data), env.PayloadBytes)
		}
		if env.CRC != crc32.ChecksumIEEE(payload) {
			t.Fatalf("accepted a payload hashing to %08x under CRC %08x", crc32.ChecksumIEEE(payload), env.CRC)
		}
	})
}
