package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Rotation bounds a file-backed EventLog: when the active file reaches
// MaxBytes the log rotates it to <path>.1 (shifting older segments to
// .2, .3, ...) and starts a fresh file, keeping at most Keep rotated
// segments. Rotation happens only between events, so every segment
// holds whole JSON lines.
type Rotation struct {
	// MaxBytes triggers a rotation once the active file reaches it.
	// Zero or negative disables rotation (the pre-rotation behavior:
	// the file grows without bound).
	MaxBytes int64
	// Keep is how many rotated segments survive; older ones are
	// deleted. Zero or negative means the default of 3.
	Keep int
}

func (p Rotation) withDefaults() Rotation {
	if p.Keep <= 0 {
		p.Keep = 3
	}
	return p
}

// EventLog appends structured training events as JSON Lines, one object
// per line, each stamped with a UTC timestamp and an event name. It is
// safe for concurrent use and nil-receiver-safe, so instrumented code
// can log unconditionally. File-backed logs can rotate by size (see
// Rotation) so long-lived runs do not grow one file without bound.
type EventLog struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer

	// rotation state; zero-valued for writer-backed logs.
	path string
	pol  Rotation
	size int64
}

// NewEventLog writes events to w (never rotates).
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w}
}

// OpenEventLog appends events to the file at path, creating it if
// needed, and rotates it by size per pol: at MaxBytes the active file
// becomes <path>.1, existing segments shift up, and segments beyond
// Keep are deleted. The zero Rotation never rotates.
func OpenEventLog(path string, pol Rotation) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open event log: %w", err)
	}
	l := &EventLog{w: f, closer: f, path: path, pol: pol.withDefaults()}
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
	l.mu.Lock()
	defer l.mu.Unlock()
	n, _ := l.w.Write(line)
	l.size += int64(n)
	n, _ = l.w.Write([]byte{'\n'})
	l.size += int64(n)
	if l.path != "" && l.pol.MaxBytes > 0 && l.size >= l.pol.MaxBytes {
		l.rotate()
	}
}

// rotate shifts <path>.k to <path>.k+1 for the kept segments, moves the
// active file to <path>.1, and reopens a fresh active file. Callers
// hold mu. Failures leave the log appending to whatever file is open —
// rotation is best-effort, losing events is not an option.
func (l *EventLog) rotate() {
	if l.closer != nil {
		l.closer.Close()
	}
	os.Remove(segmentPath(l.path, l.pol.Keep))
	for k := l.pol.Keep - 1; k >= 1; k-- {
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
