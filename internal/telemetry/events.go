package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// The one rotation policy of every file a program appends to: at 64 MiB
// the active file becomes <path>.1, older segments shift up, and three
// rotated segments are kept.
const (
	rotateBytes = 64 << 20
	rotateKeep  = 3
)

// EventLog appends JSON Lines: structured events through Log, or whole
// lines written by anything that takes an io.Writer (an slog JSON
// handler writes one record per Write). It is safe for concurrent use
// and nil-receiver-safe, so instrumented code can log unconditionally.
// A file-backed log rotates by size between writes, so every segment
// holds whole lines and a process that never exits does not grow one
// file without bound.
type EventLog struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer

	// rotation state; path is empty for writer-backed logs.
	path     string
	maxBytes int64
	keep     int
	size     int64
}

// NewEventLog writes events to w (never rotates).
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w}
}

// OpenEventLog appends events to the file at path, creating it if
// needed, and rotates it at 64 MiB with three rotated segments kept.
func OpenEventLog(path string) (*EventLog, error) {
	return openEventLog(path, rotateBytes, rotateKeep)
}

// openEventLog is OpenEventLog under any policy, so tests can rotate at
// a few hundred bytes.
func openEventLog(path string, maxBytes int64, keep int) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open event log: %w", err)
	}
	l := &EventLog{w: f, closer: f, path: path, maxBytes: maxBytes, keep: keep}
	if st, err := f.Stat(); err == nil {
		l.size = st.Size()
	}
	return l, nil
}

// Log writes one event line: {"ts":..., "event":name, ...fields}.
// Reserved keys "ts" and "event" in fields are overwritten. Marshal
// failures are silently dropped — telemetry must never take down a
// training run.
func (l *EventLog) Log(name string, fields map[string]any) {
	if l == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	rec["event"] = name
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	l.Write(append(line, '\n'))
}

// Write appends p, which must be whole lines, and rotates the file
// afterwards once it has reached the size limit.
func (l *EventLog) Write(p []byte) (int, error) {
	if l == nil {
		return len(p), nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.w.Write(p)
	l.size += int64(n)
	if l.path != "" && l.size >= l.maxBytes {
		l.rotate()
	}
	return n, err
}

// rotate shifts <path>.k to <path>.k+1 for the kept segments, moves the
// active file to <path>.1, and reopens a fresh active file. Callers
// hold mu. Failures leave the log appending to whatever file is open —
// rotation is best-effort, losing events is not an option.
func (l *EventLog) rotate() {
	if l.closer != nil {
		l.closer.Close()
	}
	os.Remove(segmentPath(l.path, l.keep))
	for k := l.keep - 1; k >= 1; k-- {
		os.Rename(segmentPath(l.path, k), segmentPath(l.path, k+1))
	}
	os.Rename(l.path, segmentPath(l.path, 1))
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Reopening the renamed segment keeps events flowing; the next
		// rotation will retry the fresh-file open.
		f, err = os.OpenFile(segmentPath(l.path, 1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			l.w, l.closer = io.Discard, nil
			return
		}
	}
	l.w, l.closer = f, f
	if st, err := f.Stat(); err == nil {
		l.size = st.Size()
	} else {
		l.size = 0
	}
}

// segmentPath names rotated segment k of an event log.
func segmentPath(path string, k int) string { return fmt.Sprintf("%s.%d", path, k) }

// Close closes the underlying file when the log owns one.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closer == nil {
		return nil
	}
	return l.closer.Close()
}
