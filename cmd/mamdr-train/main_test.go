package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/ps"
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
// names — mamdr with its DR phase, dn without — and any other framework,
// or -ps-sync-push without the cache it needs, is refused before
// training starts.
func TestPSFrameworkFlags(t *testing.T) {
	for _, tc := range []struct {
		framework       string
		cache, syncPush bool
		useDR, ok       bool
	}{
		{"mamdr", true, false, true, true},
		{"mamdr", true, true, true, true},
		{"mamdr", false, false, true, true},
		{"dn", true, true, false, true},
		{"dr", true, false, false, false},
		{"alternate", true, false, false, false},
		{"mamdr", false, true, false, false},
		{"dn", false, true, false, false},
	} {
		useDR, err := checkFramework(tc.framework, false, 2, tc.cache, tc.syncPush)
		if (err == nil) != tc.ok || (tc.ok && useDR != tc.useDR) {
			t.Errorf("checkFramework(%q, cache=%v, sync=%v) = (%v, %v), want useDR=%v ok=%v",
				tc.framework, tc.cache, tc.syncPush, useDR, err, tc.useDR, tc.ok)
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
		_, err := checkFramework(tc.framework, true, tc.psWorkers, true, false)
		if (err == nil) != tc.ok {
			t.Errorf("checkFramework(%q, save, workers=%d) = %v, want ok=%v", tc.framework, tc.psWorkers, err, tc.ok)
		}
		if _, err := checkFramework(tc.framework, false, 0, true, false); err != nil {
			t.Errorf("checkFramework(%q) without -save or -ps-workers = %v, want nil", tc.framework, err)
		}
	}
}
