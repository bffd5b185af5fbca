package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// readEvents returns the "i" field of every event in a JSONL file, in
// file order, failing on torn or invalid lines.
func readEvents(t *testing.T, path string) []int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var out []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			Event string `json:"event"`
			I     int    `json:"i"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: torn line %q: %v", path, sc.Text(), err)
		}
		if rec.Event != "tick" {
			t.Fatalf("%s: unexpected event %q", path, rec.Event)
		}
		out = append(out, rec.I)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEventLogRotation pins the size-based rotation contract: segments
// rotate at the byte limit, at most Keep rotated segments survive, and
// the surviving files partition the most recent events in order with
// whole lines only.
func TestEventLogRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	log, err := openEventLog(path, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	const total = 200
	for i := 0; i < total; i++ {
		log.Log("tick", map[string]any{"i": i})
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Only the active file and Keep segments may exist.
	if _, err := os.Stat(segmentPath(path, 3)); !os.IsNotExist(err) {
		t.Fatalf("segment .3 exists; Keep=2 must bound retention (err=%v)", err)
	}
	var all []int
	for _, p := range []string{segmentPath(path, 2), segmentPath(path, 1), path} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("expected %s to exist: %v", p, err)
		}
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		// A segment may exceed MaxBytes only by the final line that
		// crossed the limit, never by more than one event (~80 bytes).
		if p != path && st.Size() > 400+120 {
			t.Fatalf("%s is %d bytes; rotation should trigger at 400", p, st.Size())
		}
		all = append(all, readEvents(t, p)...)
	}

	// The retained files hold a contiguous, ordered suffix of the
	// stream: rotation drops only the oldest segments, never middles.
	if len(all) == 0 || len(all) >= total {
		t.Fatalf("retained %d events of %d; rotation should have discarded an oldest prefix", len(all), total)
	}
	for k := 1; k < len(all); k++ {
		if all[k] != all[k-1]+1 {
			t.Fatalf("retained events not contiguous at %d: %v -> %v", k, all[k-1], all[k])
		}
	}
	if last := all[len(all)-1]; last != total-1 {
		t.Fatalf("newest retained event is %d, want %d", last, total-1)
	}
}

// TestEventLogRotationBoundary pins the boundary behavior: rotation
// triggers on the write that reaches MaxBytes — never mid-line — so
// every segment ends with the whole event that crossed the limit and
// the next segment starts fresh. Lines are padded so their size
// dominates the few bytes of timestamp-length jitter.
func TestEventLogRotationBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.jsonl")
	pad := strings.Repeat("x", 60) // each line lands near 120 bytes

	// MaxBytes = 300: two ~120-byte lines stay under, the third always
	// crosses — every segment must hold exactly three whole events.
	log, err := openEventLog(path, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	const total = 30
	for i := 0; i < total; i++ {
		log.Log("tick", map[string]any{"i": i, "pad": pad})
	}
	log.Close()

	if got := readEvents(t, path); len(got) != 0 {
		t.Fatalf("active file = %v, want empty (the 30th event crossed the limit and rotated)", got)
	}
	var all []int
	for k := 5; k >= 1; k-- {
		got := readEvents(t, segmentPath(path, k))
		if len(got) != 3 {
			t.Fatalf("segment .%d = %v, want exactly 3 whole events per segment", k, got)
		}
		all = append(all, got...)
	}
	for k := 1; k < len(all); k++ {
		if all[k] != all[k-1]+1 {
			t.Fatalf("segments out of order at %d: %v", k, all)
		}
	}
	if last := all[len(all)-1]; last != total-1 {
		t.Fatalf("newest retained event is %d, want %d", last, total-1)
	}
}

// TestEventLogRotationConcurrent hammers a rotating log from many
// goroutines under -race: every surviving line must be whole and valid
// even when rotation interleaves with writes.
func TestEventLogRotationConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.jsonl")
	log, err := openEventLog(path, 1<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				log.Log("tick", map[string]any{"i": w*100 + i})
			}
		}(w)
	}
	wg.Wait()
	log.Close()

	files, err := filepath.Glob(path + "*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no log files (%v)", err)
	}
	if len(files) > 4 { // active + Keep
		t.Fatalf("%d files retained, want <= 4: %v", len(files), files)
	}
	n := 0
	for _, p := range files {
		n += len(readEvents(t, p))
	}
	if n == 0 {
		t.Fatal("no events survived")
	}
}

// TestOpenEventLogAppendCompat pins that reopening a log appends to the
// existing file instead of truncating it.
func TestOpenEventLogAppendCompat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.jsonl")
	for round := 0; round < 2; round++ {
		log, err := OpenEventLog(path)
		if err != nil {
			t.Fatal(err)
		}
		log.Log("tick", map[string]any{"i": round})
		log.Close()
	}
	if got := readEvents(t, path); fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("append-compat events = %v, want [0 1]", got)
	}
}

// TestEventLogAsSlogWriter: an slog JSON handler writing through a
// rotating EventLog — how mamdr-serve writes its access log — leaves
// whole JSON records in every segment, each carrying its attributes.
func TestEventLogAsSlogWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.jsonl")
	el, err := openEventLog(path, 1<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewJSONHandler(el, nil))
	const total = 100
	for i := 0; i < total; i++ {
		logger.Info("request", slog.String("request_id", fmt.Sprintf("rid-%03d", i)), slog.Int("status", 200))
	}
	el.Close()

	if _, err := os.Stat(segmentPath(path, 3)); err != nil {
		t.Fatalf("100 records did not rotate three times at 1 KiB: %v", err)
	}
	seen := 0
	for _, p := range []string{segmentPath(path, 3), segmentPath(path, 2), segmentPath(path, 1), path} {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 0 && raw[len(raw)-1] != '\n' {
			t.Fatalf("%s ends mid-record", p)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var rec struct {
				Msg       string `json:"msg"`
				RequestID string `json:"request_id"`
				Status    int    `json:"status"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("%s: torn record %q: %v", p, line, err)
			}
			if rec.Msg != "request" || !strings.HasPrefix(rec.RequestID, "rid-") || rec.Status != 200 {
				t.Fatalf("%s: record = %+v", p, rec)
			}
			seen++
		}
	}
	if seen == 0 || seen >= total {
		t.Fatalf("%d of %d records retained; rotation should have dropped the oldest", seen, total)
	}
}
