package trace

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"
)

// CaptureHandler serves capture-on-demand tracing: GET
// /debug/trace?sec=N attaches a temporary collector to the tracer,
// waits N seconds (default 5, capped at 120), and responds with
// everything that completed in the window as a Chrome trace-event
// JSON download — no restart, no always-on export cost. Cancelling
// the request ends the capture early with whatever was collected.
func CaptureHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		sec := 5
		if v := r.URL.Query().Get("sec"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				http.Error(w, "sec must be a positive integer", http.StatusBadRequest)
				return
			}
			sec = n
		}
		if sec > 120 {
			sec = 120
		}

		col := NewCollector(0)
		t.AddSink(col)
		select {
		case <-time.After(time.Duration(sec) * time.Second):
		case <-r.Context().Done():
		}
		t.RemoveSink(col)

		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf(`attachment; filename="capture-%ds.trace.json"`, sec))
		WriteChrome(w, col.Spans(), os.Getpid(), 0)
	})
}
