package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"mamdr"
	"mamdr/internal/core"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/serve"
)

// saveUntrained writes an untrained state of a small preset's dataset
// and model to a checkpoint, recording the spec they were built from
// after edit (when non-nil) has changed it.
func saveUntrained(t *testing.T, edit func(*mamdr.Spec)) string {
	t.Helper()
	spec := mamdr.Spec{Preset: "amazon-6", Samples: 600, Seed: 3, Model: "mlp", EmbDim: 8}
	ds, err := mamdr.SpecDataset(&spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mamdr.SpecModel(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := &core.State{Model: m, Shared: paramvec.Snapshot(m.Parameters()), Spec: spec}
	for range ds.Domains {
		st.AddDomain()
	}
	if edit != nil {
		edit(&st.Spec)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadRefusesDigestlessFirst: a checkpoint that records no dataset
// digest is refused for that, from the file alone, before the dataset
// its spec names is built — here a -data file that does not exist,
// which the refusal must not be about.
func TestLoadRefusesDigestlessFirst(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	path := saveUntrained(t, func(s *mamdr.Spec) {
		s.Preset, s.Samples, s.DataPath, s.DataSHA256 = "", 0, missing, ""
	})
	_, _, _, err := load(path)
	if err == nil || !strings.Contains(err.Error(), "dataset digest") || strings.Contains(err.Error(), missing) {
		t.Fatalf("load of a digest-less checkpoint over a missing -data file: %v, want a refusal naming the digest", err)
	}
}

// TestPprofOnlyBehindFlag: the API listener answers /debug/pprof/ with
// net/http/pprof's index only under -pprof, and 404 without it; the API
// is served either way.
func TestPprofOnlyBehindFlag(t *testing.T) {
	ck, env, ds, err := load(saveUntrained(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.Open(ck, env, ds, serve.Options{
		Replicas:       1,
		ReplicaFactory: func() models.Model { m, _ := mamdr.SpecModel(ds, ck.Spec); return m },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(h http.Handler, path string) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		body, _ := io.ReadAll(w.Result().Body)
		return w.Code, string(body)
	}
	for _, withPprof := range []bool{false, true} {
		h := handler(srv.Handler(), withPprof)
		if code, _ := get(h, "/healthz"); code != http.StatusOK {
			t.Errorf("-pprof=%v: /healthz = %d, want 200", withPprof, code)
		}
		for path, want := range map[string]string{"/debug/pprof/": "heap", "/debug/pprof/cmdline": ""} {
			code, body := get(h, path)
			switch {
			case !withPprof && code != http.StatusNotFound:
				t.Errorf("without -pprof: GET %s = %d, want 404", path, code)
			case withPprof && (code != http.StatusOK || !strings.Contains(body, want)):
				t.Errorf("-pprof: GET %s = %d, want 200 and a body with %q", path, code, want)
			}
		}
	}
}
