package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
)

// FuzzRegistrySnapshot feeds arbitrary bytes to the decoder a fleet
// aggregator points at other processes — encoding/json, the body of
// /metrics/snapshot — and then does what obsv.Scraper does with the
// result. Decoding and Validate must never panic, whatever the peer
// sent; and Validate's promise is that what it passes is safe to
// render, so a snapshot that validates must go through WriteFamilies,
// the one exposition writer, without panicking or failing. The seeds
// run under plain `go test`.
func FuzzRegistrySnapshot(f *testing.F) {
	reg := New()
	reg.Counter("requests_total", "Requests.", L("code", "200")).Add(3)
	reg.Gauge("queue_depth", "Depth.").Set(-1.5)
	h := reg.Histogram("latency_seconds", "Latency.", []float64{0.1, 1}, L("op", `p"u\ll`))
	for _, v := range []float64{0.05, 0.5, 5} {
		h.Observe(v)
	}
	rec := httptest.NewRecorder()
	SnapshotHandler("ps", "127.0.0.1:7101", reg).ServeHTTP(rec, nil)
	valid := rec.Body.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add([]byte{})
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":2,"families":[]}`)) // a version this build does not speak
	f.Add([]byte(`{"version":1,"families":null}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"summary","series":[{"value":1}]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"counter","bounds":[1],"series":[{"value":1}]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"histogram","bounds":[1,2],"series":[{"buckets":[1]}]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"histogram","bounds":[1],"series":[{"buckets":[1,2,3]}]}]}`)) // 3 buckets, 1 bound
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"histogram","series":[{"buckets":[4],"count":-9}]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"requests_total","kind":"histogram","series":[{"value":3}]}]}`)) // a counter's series, no buckets
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"histogram","bounds":[2,1],"series":[{"buckets":[1,1,1],"count":3}]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"histogram","bounds":[1e308,1.7976931348623157e308],"series":[{"buckets":[1,2,3],"sum":-1e308,"count":6}]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"gauge","series":[{"value":1e999}]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"gauge","series":[]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"","kind":"gauge","series":[{"labels":[{"Name":"","Value":"\n"}],"value":null}]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"counter","series":[{"labels":[{"Name":"a","Value":"\"\\\n"}],"value":-1}]}]}`))
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"counter","series":[{"value":1},{"value":2}]},{"name":"x","kind":"gauge","series":[{"value":3}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap RegistrySnapshot
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil || snap.Validate() != nil {
			return
		}
		if err := WriteFamilies(io.Discard, snap.Families); err != nil {
			t.Fatalf("a snapshot that validates failed to render: %v", err)
		}
	})
}
