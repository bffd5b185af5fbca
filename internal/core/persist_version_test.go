package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/quality"
)

// legacyCheckpoint is the v2 payload layout — the Checkpoint struct as
// it existed before the quality-baseline block, its vectors inside the
// gob block as in every file before v5.
type legacyCheckpoint struct {
	ModelName string
	Shared    paramvec.Vector
	Specific  []paramvec.Vector
	Epoch     int
	Outer     optim.State
}

// writeEnvelope writes payload v under an arbitrary envelope version —
// the file a binary of that era would have produced.
func writeEnvelope(t testing.TB, path string, version uint32, v any) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatal(err)
	}
	writeRawEnvelope(t, path, version, payload.Bytes())
}

// writeRawEnvelope writes payload under a valid header of the given
// version: the right length and CRC.
func writeRawEnvelope(t testing.TB, path string, version uint32, payload []byte) {
	t.Helper()
	var head [headerLen]byte
	copy(head[:8], checkpointMagic)
	binary.LittleEndian.PutUint32(head[8:12], version)
	binary.LittleEndian.PutUint64(head[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(head[20:24], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, append(head[:], payload...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadPreQualityCheckpoint is the version-negotiation property for
// the oldest shipped format: a v2 (pre-quality) checkpoint, whose spec
// records no dataset digest, is refused with an error naming its
// version and the range this build reads, reports no baseline, and
// leaves the receiving state's parameters as they were.
func TestLoadPreQualityCheckpoint(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	st := framework.MustNew("mamdr").Fit(m, ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)
	b := ds.FullBatch(0, data.Test)
	want := st.Predict(b)

	other := framework.MustNew("mamdr").Fit(testModel(t, ds), ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 10}).(*State)
	path := filepath.Join(t.TempDir(), "v2.ckpt")
	writeEnvelope(t, path, 2, legacyCheckpoint{
		ModelName: other.Model.Name(),
		Shared:    other.Shared,
		Specific:  other.Specific,
		Epoch:     -1,
	})

	ck, _, err := ReadState(path)
	if err == nil {
		err = st.Load(path)
	}
	base := ck.Quality
	if err == nil {
		t.Fatal("v2 checkpoint loaded; want a version refusal")
	}
	if msg := err.Error(); !strings.Contains(msg, "checkpoint format v2") ||
		!strings.Contains(msg, fmt.Sprintf("reads v%d..v%d", checkpointMinVersion, checkpointVersion)) {
		t.Fatalf("v2 refusal = %q, want it to name v2 and the readable range", msg)
	}
	if base != nil {
		t.Fatalf("refused v2 checkpoint produced a baseline: %+v", base)
	}
	got := st.Predict(b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d changed after a refused v2 load: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestSaveLoadWithBaseline round-trips the v3 envelope: the frozen
// baseline comes back intact next to the parameters.
func TestSaveLoadWithBaseline(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	st := framework.MustNew("mamdr").Fit(m, ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)

	bb := quality.NewBaselineBuilder()
	for d := range ds.Domains {
		b := ds.FullBatch(d, data.Val)
		bb.Observe(ds.Domains[d].Name, st.Predict(b), b.Labels)
	}
	want := bb.Build()

	path := filepath.Join(t.TempDir(), "v3.ckpt")
	if err := st.SaveWithBaseline(path, want); err != nil {
		t.Fatal(err)
	}
	_, env, err := ReadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != checkpointVersion {
		t.Fatalf("written envelope is v%d, want v%d", env.Version, checkpointVersion)
	}

	st2 := &State{Model: testModel(t, ds)}
	ck, loaded, err := ReadState(path)
	if err == nil {
		err = st2.Load(path)
	}
	got := ck.Quality
	if err != nil {
		t.Fatal(err)
	}
	if loaded != env {
		t.Fatalf("loaded envelope = %+v, ReadState = %+v", loaded, env)
	}
	if got == nil {
		t.Fatal("baseline lost in round trip")
	}
	if got.Bins != want.Bins || len(got.Domains) != len(want.Domains) {
		t.Fatalf("baseline shape changed: %d bins %d domains vs %d/%d",
			got.Bins, len(got.Domains), want.Bins, len(want.Domains))
	}
	for i := range want.Domains {
		w, g := want.Domains[i], got.Domains[i]
		if g.Name != w.Name || g.AUC != w.AUC || g.PosRate != w.PosRate || g.Count != w.Count {
			t.Fatalf("domain %d profile changed: %+v vs %+v", i, g, w)
		}
		for b := range w.ScoreHist {
			if g.ScoreHist[b] != w.ScoreHist[b] {
				t.Fatalf("domain %d hist bucket %d changed", i, b)
			}
		}
	}
}

// TestLoadRejectsOutOfRangeVersions pins the negotiation window: v1
// (never shipped with this payload), the v2–v4 files, whose specs
// record no dataset digest, and a future version all fail with a
// version error, not silent misreads.
func TestLoadRejectsOutOfRangeVersions(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	st := framework.MustNew("dn").Fit(m, ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)
	for _, ver := range []uint32{1, 2, 3, 4, checkpointVersion + 1} {
		path := filepath.Join(t.TempDir(), "bad.ckpt")
		writeEnvelope(t, path, ver, legacyCheckpoint{ModelName: st.Model.Name(), Shared: st.Shared, Specific: st.Specific, Epoch: -1})
		fresh := &State{Model: testModel(t, ds)}
		err := fresh.Load(path)
		if err == nil || !strings.Contains(err.Error(), "checkpoint format") {
			t.Fatalf("v%d: Load = %v, want version rejection", ver, err)
		}
	}
}
