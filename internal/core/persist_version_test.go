package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
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
// it existed before the quality-baseline block. Gob matches fields by
// name, so encoding this and decoding into today's Checkpoint is
// exactly what reading a pre-quality file does.
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
	var head [headerLen]byte
	copy(head[:8], checkpointMagic)
	binary.LittleEndian.PutUint32(head[8:12], version)
	binary.LittleEndian.PutUint64(head[12:20], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(head[20:24], crc32.ChecksumIEEE(payload.Bytes()))
	if err := os.WriteFile(path, append(head[:], payload.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadPreQualityCheckpoint is the version-negotiation property: a
// v2 (pre-quality) checkpoint must load cleanly — parameters restored,
// nil baseline reported — instead of being rejected.
func TestLoadPreQualityCheckpoint(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	st := framework.MustNew("mamdr").Fit(m, ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)
	b := ds.FullBatch(0, data.Test)
	want := st.Predict(b)

	path := filepath.Join(t.TempDir(), "v2.ckpt")
	writeEnvelope(t, path, 2, legacyCheckpoint{
		ModelName: st.Model.Name(),
		Shared:    st.Shared,
		Specific:  st.Specific,
		Epoch:     -1,
	})

	st2 := &State{Model: testModel(t, ds)}
	base, env, err := st2.LoadWithBaseline(path)
	if err != nil {
		t.Fatalf("v2 checkpoint rejected: %v", err)
	}
	if base != nil {
		t.Fatalf("v2 checkpoint produced a baseline: %+v", base)
	}
	if env.Version != 2 {
		t.Fatalf("v2 checkpoint loaded as envelope v%d", env.Version)
	}
	got := st2.Predict(b)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("prediction %d differs after v2 reload: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestSaveLoadWithBaseline round-trips the v3 envelope: the frozen
// baseline comes back intact next to the parameters.
func TestSaveLoadWithBaseline(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	st := framework.MustNew("mamdr").Fit(m, ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)

	bb := quality.NewBaselineBuilder(0)
	for d := range ds.Domains {
		b := ds.FullBatch(d, data.Val)
		bb.Observe(ds.Domains[d].Name, st.Predict(b), b.Labels)
	}
	want := bb.Build()

	path := filepath.Join(t.TempDir(), "v3.ckpt")
	if err := st.SaveWithBaseline(path, want); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	env, err := LoadGobEnvelope(path, &ck)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != checkpointVersion {
		t.Fatalf("written envelope is v%d, want v%d", env.Version, checkpointVersion)
	}

	st2 := &State{Model: testModel(t, ds)}
	got, loaded, err := st2.LoadWithBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != env {
		t.Fatalf("LoadWithBaseline envelope = %+v, LoadGobEnvelope = %+v", loaded, env)
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
// (never shipped with this payload) and a future v4 both fail with a
// version error, not silent misreads.
func TestLoadRejectsOutOfRangeVersions(t *testing.T) {
	ds := testDataset(t, 0.5)
	m := testModel(t, ds)
	st := framework.MustNew("dn").Fit(m, ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)
	for _, ver := range []uint32{1, checkpointVersion + 1} {
		path := filepath.Join(t.TempDir(), "bad.ckpt")
		writeEnvelope(t, path, ver, legacyCheckpoint{ModelName: st.Model.Name(), Shared: st.Shared, Specific: st.Specific, Epoch: -1})
		fresh := &State{Model: testModel(t, ds)}
		err := fresh.Load(path)
		if err == nil || !strings.Contains(err.Error(), "checkpoint format") {
			t.Fatalf("v%d: Load = %v, want version rejection", ver, err)
		}
	}
}
