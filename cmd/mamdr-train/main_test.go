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
