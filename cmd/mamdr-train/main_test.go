package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/framework"
	"mamdr/internal/ps"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// TestResumeRefusesSingleServerCheckpoint: a -checkpoint-dir holding the
// base file of the single-server trainer and no per-shard file must stop
// a -resume — a router over shard servers would report "no checkpoint"
// and the run would start over without a word. Once any shard file of
// this plan is there, or with no base file at all, resuming goes ahead.
func TestResumeRefusesSingleServerCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ps.ckpt")
	touch := func(p string) {
		t.Helper()
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := refuseLegacyCheckpoint(base, 1); err != nil {
		t.Fatalf("empty directory refused: %v", err)
	}
	touch(base)
	for _, shards := range []int{1, 3} {
		err := refuseLegacyCheckpoint(base, shards)
		if err == nil {
			t.Fatalf("%d shards: base file without shard files was not refused", shards)
		}
		for _, want := range []string{base, ps.ShardCheckpointPath(base, 0, shards)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%d shards: error %q does not name %s", shards, err, want)
			}
		}
	}
	// A shard file of another plan is no checkpoint of this one.
	touch(ps.ShardCheckpointPath(base, 0, 1))
	if err := refuseLegacyCheckpoint(base, 3); err == nil {
		t.Fatal("a 1-shard file satisfied a 3-shard resume")
	}
	if err := refuseLegacyCheckpoint(base, 1); err != nil {
		t.Fatalf("base file beside this plan's shard file refused: %v", err)
	}
	touch(ps.ShardCheckpointPath(base, 2, 3))
	if err := refuseLegacyCheckpoint(base, 3); err != nil {
		t.Fatalf("base file beside one of this plan's shard files refused: %v", err)
	}
}

// TestPSFrameworkFlags: a -ps-workers fit runs the framework -framework
// names — mamdr with its DR phase, dn without — and any other framework
// is refused before training starts.
func TestPSFrameworkFlags(t *testing.T) {
	for _, tc := range []struct {
		framework string
		useDR, ok bool
	}{
		{"mamdr", true, true},
		{"dn", false, true},
		{"dr", false, false},
		{"alternate", false, false},
	} {
		useDR, err := checkFlags(framework.Config{}, tc.framework, false, workers(2))
		if (err == nil) != tc.ok || (tc.ok && useDR != tc.useDR) {
			t.Errorf("checkFlags(%q) = (%v, %v), want useDR=%v ok=%v",
				tc.framework, useDR, err, tc.useDR, tc.ok)
		}
	}
}

// TestSaveFrameworkFlags: -save writes a *core.State, so every framework
// whose fit is something else is refused before the dataset is built,
// not after the last epoch; a -ps-workers fit always saves one.
func TestSaveFrameworkFlags(t *testing.T) {
	for _, tc := range []struct {
		framework string
		psWorkers int
		ok        bool
	}{
		{"mamdr", 0, true},
		{"dn", 0, true},
		{"dr", 0, true},
		{"mamdr", 2, true},
		{"dn", 2, true},
		{"alternate", 0, false},
		{"finetune", 0, false},
		{"separate", 0, false},
		{"maml", 0, false},
		{"nosuch", 0, false},
	} {
		_, err := checkFlags(framework.Config{}, tc.framework, true, workers(tc.psWorkers))
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, save, workers=%d) = %v, want ok=%v", tc.framework, tc.psWorkers, err, tc.ok)
		}
		if _, err := checkFlags(framework.Config{}, tc.framework, false, workers(0)); err != nil {
			t.Errorf("checkFlags(%q) without -save or -ps-workers = %v, want nil", tc.framework, err)
		}
	}
}

// TestResumeNeedsCheckpointDir: -resume without -checkpoint-dir has
// nothing to resume from, so it is refused before the dataset is built
// instead of training from scratch under a flag that promised a resume.
func TestResumeNeedsCheckpointDir(t *testing.T) {
	for _, psWorkers := range []int{0, 2} {
		_, err := checkFlags(framework.Config{Resume: true}, "mamdr", false, workers(psWorkers))
		if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
			t.Errorf("-resume without -checkpoint-dir, %d PS workers: err = %v, want one naming -checkpoint-dir", psWorkers, err)
		}
		if _, err := checkFlags(framework.Config{Resume: true, CheckpointDir: t.TempDir(), CheckpointEvery: 1}, "mamdr", false, workers(psWorkers)); err != nil {
			t.Errorf("-resume with -checkpoint-dir, %d PS workers: %v", psWorkers, err)
		}
	}
}

// TestCheckpointEveryBelowOne: a -checkpoint-dir run whose cadence is
// below 1 names no epoch to checkpoint. core.Fit read it as every epoch
// and the PS trainer as never, so a -ps-workers run wrote nothing and
// its -resume retrained from epoch 0; both paths now refuse it, naming
// -checkpoint-every, before the dataset is built. Without
// -checkpoint-dir the cadence is never read.
func TestCheckpointEveryBelowOne(t *testing.T) {
	for _, psWorkers := range []int{0, 2} {
		for _, every := range []int{0, -1} {
			_, err := checkFlags(framework.Config{CheckpointDir: t.TempDir(), CheckpointEvery: every}, "mamdr", false, workers(psWorkers))
			if err == nil || !strings.Contains(err.Error(), "-checkpoint-every") {
				t.Errorf("-checkpoint-every %d, %d PS workers: err = %v, want one naming -checkpoint-every", every, psWorkers, err)
			}
		}
		if _, err := checkFlags(framework.Config{CheckpointDir: t.TempDir(), CheckpointEvery: 1}, "mamdr", false, workers(psWorkers)); err != nil {
			t.Errorf("-checkpoint-every 1, %d PS workers: %v", psWorkers, err)
		}
		if _, err := checkFlags(framework.Config{}, "mamdr", false, workers(psWorkers)); err != nil {
			t.Errorf("-checkpoint-every 0 without -checkpoint-dir, %d PS workers: %v", psWorkers, err)
		}
	}
}

// workers is the PS flags' defaults (one shard, one replica) at n
// workers.
func workers(n int) psFlags { return psFlags{workers: n, shards: 1, replicas: 1} }

// TestPSCountsBelowRange: a negative -ps-workers trained single-process,
// and a -ps-shards or -shard-replicas below 1 trained on one, each
// without a word. Each is refused, naming its flag, before the dataset
// is built.
func TestPSCountsBelowRange(t *testing.T) {
	for _, tc := range []struct {
		flag string
		pf   psFlags
	}{
		{"-ps-workers -1", psFlags{workers: -1, shards: 1, replicas: 1}},
		{"-ps-shards 0", psFlags{workers: 2, shards: 0, replicas: 1}},
		{"-ps-shards -3", psFlags{workers: 2, shards: -3, replicas: 1}},
		{"-shard-replicas 0", psFlags{workers: 2, shards: 1, replicas: 0}},
		{"-shard-replicas -1", psFlags{workers: 0, shards: 1, replicas: -1}},
	} {
		_, err := checkFlags(framework.Config{}, "mamdr", false, tc.pf)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+":") {
			t.Errorf("%+v: err = %v, want one naming %s", tc.pf, err, tc.flag)
		}
	}
	if _, err := checkFlags(framework.Config{}, "mamdr", false, psFlags{workers: 2, shards: 3, replicas: 2}); err != nil {
		t.Errorf("-ps-workers 2 -ps-shards 3 -shard-replicas 2: %v", err)
	}
}

// TestOpsMuxServesPprof: the -metrics-addr listener serves
// net/http/pprof beside /metrics, so a live fit can be profiled.
func TestOpsMuxServesPprof(t *testing.T) {
	srv := httptest.NewServer(opsMux("trainer", "", telemetry.New(), trace.New(trace.Options{})))
	defer srv.Close()
	for path, want := range map[string]string{"/debug/pprof/": "heap", "/debug/pprof/cmdline": "", "/metrics": ""} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %d, want 200 and a body with %q", path, resp.StatusCode, want)
		}
	}
}

// TestHostRefusesRunFlags: a -ps-serve host takes its run from the
// trainer that installs it, so every flag it would not read is refused,
// each by name, and its own flags pass.
func TestHostRefusesRunFlags(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("mamdr-train", flag.ContinueOnError)
		for _, name := range []string{"ps-serve", "checkpoint-dir", "metrics-addr", "trace", "preset", "samples", "lr", "outer-lr"} {
			fs.String(name, "", "")
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return hostFlagsOnly(fs)
	}
	if err := parse("-ps-serve", "a,b", "-checkpoint-dir", "d", "-metrics-addr", ":1", "-trace", "f"); err != nil {
		t.Fatalf("host flags refused: %v", err)
	}
	if err := parse("-preset", "amazon-6", "-lr", "0.05"); err != nil {
		t.Fatalf("a trainer's run flags refused: %v", err)
	}
	err := parse("-ps-serve", "a", "-preset", "amazon-6", "-checkpoint-dir", "d", "-outer-lr", "0.2")
	if err == nil || !strings.Contains(err.Error(), "-outer-lr -preset:") {
		t.Fatalf("host with -preset and -outer-lr: %v, want a refusal naming both", err)
	}
}
