package telemetry

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"testing"
)

// gobUint appends v in gob's unsigned encoding: one byte below 128, else
// the negated byte count followed by the big-endian bytes.
func gobUint(dst []byte, v uint64) []byte {
	if v < 128 {
		return append(dst, byte(v))
	}
	var be []byte
	for ; v > 0; v >>= 8 {
		be = append([]byte{byte(v)}, be...)
	}
	return append(append(dst, byte(-len(be))), be...)
}

// claimLength rewrites a gob stream so that the slice whose encoding is
// elems (its one-byte count, then its elements) claims count elements
// instead, with the enclosing message's length prefix kept true — the
// stream a peer sends that promises far more than it delivers.
func claimLength(tb testing.TB, stream, elems []byte, count uint64) []byte {
	tb.Helper()
	// The value is the last message; each message is a gob uint length
	// and that many bytes.
	var start, bodyAt, size int
	for at := 0; at < len(stream); at = bodyAt + size {
		start = at
		if stream[at] < 128 {
			size, bodyAt = int(stream[at]), at+1
			continue
		}
		n := int(-int8(stream[at]))
		size, bodyAt = 0, at+1+n
		for _, b := range stream[at+1 : bodyAt] {
			size = size<<8 | int(b)
		}
	}
	body := stream[bodyAt:]
	i := bytes.Index(body, elems)
	if i < 0 {
		tb.Fatalf("slice encoding % x not found in the value message", elems)
	}
	patched := append(gobUint(append([]byte(nil), body[:i]...), count), body[i+1:]...)
	out := gobUint(append([]byte(nil), stream[:start]...), uint64(len(patched)))
	return append(out, patched...)
}

// FuzzRegistrySnapshot feeds arbitrary bytes to the two decoders a fleet
// aggregator points at other processes — encoding/json for
// /metrics/snapshot, encoding/gob for the PS.MetricsSnapshot RPC — and
// then does what obsv.Scraper does with the result. Decoding and
// Validate must never panic, whatever the peer sent; and Validate's
// promise is that what it passes is safe to render, so a snapshot that
// validates must go through WriteFamilies, the one exposition writer,
// without panicking or failing. The seeds run under plain `go test`.
func FuzzRegistrySnapshot(f *testing.F) {
	reg := New()
	reg.Counter("requests_total", "Requests.", L("code", "200")).Add(3)
	reg.Gauge("queue_depth", "Depth.").Set(-1.5)
	h := reg.Histogram("latency_seconds", "Latency.", []float64{0.1, 1}, L("op", `p"u\ll`))
	for v, n := range map[float64]int{0.05: 5, 0.5: 11, 5: 33} { // the bucket counts claimLength looks for
		for ; n > 0; n-- {
			h.Observe(v)
		}
	}

	rec := httptest.NewRecorder()
	SnapshotHandler("ps", "127.0.0.1:7101", reg).ServeHTTP(rec, nil)
	asJSON := rec.Body.Bytes()
	asGob := func(mutate func(*RegistrySnapshot)) []byte {
		snap := reg.Snapshot()
		if mutate != nil {
			mutate(&snap)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := asGob(nil)

	f.Add(asJSON, false)
	f.Add(valid, true)
	f.Add(asJSON, true) // each format at the other's decoder
	f.Add(valid, false)
	f.Add(asJSON[:len(asJSON)/2], false) // truncated
	f.Add(valid[:len(valid)-7], true)
	f.Add([]byte{}, false)
	f.Add([]byte{}, true)
	f.Add([]byte(`{"version":2,"families":[]}`), false) // a version this build does not speak
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"summary","series":[{"value":1}]}]}`), false)
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"counter","bounds":[1],"series":[{"value":1}]}]}`), false)
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"histogram","bounds":[1,2],"series":[{"buckets":[1]}]}]}`), false)
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"histogram","series":[{"buckets":[4],"count":-9}]}]}`), false)
	f.Add([]byte(`{"version":1,"families":[{"name":"x","kind":"gauge","series":[{"value":1e999}]}]}`), false)
	f.Add([]byte(`{"version":1,"families":[{"name":"","kind":"gauge","series":[{"labels":[{"Name":"","Value":"\n"}],"value":null}]}]}`), false)
	f.Add(asGob(func(s *RegistrySnapshot) { // values JSON cannot carry
		s.Families[1].Series[0].Value = math.NaN()
		s.Families[2].Bounds[1] = math.Inf(1)
		s.Families[2].Series[0].Sum = math.Inf(-1)
	}), true)
	f.Add(asGob(func(s *RegistrySnapshot) { s.Families[2].Bounds = s.Families[2].Bounds[:1] }), true) // 3 buckets, 1 bound
	f.Add(asGob(func(s *RegistrySnapshot) { s.Families[0].Kind = "histogram" }), true)                // a counter's series, no buckets
	f.Add(claimLength(f, valid, []byte{3, 10, 22, 66}, 1e6), true)                                    // 10⁶ buckets claimed, 3 sent

	f.Fuzz(func(t *testing.T, data []byte, viaGob bool) {
		var snap RegistrySnapshot
		var err error
		if viaGob {
			err = gob.NewDecoder(bytes.NewReader(data)).Decode(&snap)
		} else {
			err = json.NewDecoder(bytes.NewReader(data)).Decode(&snap)
		}
		if err != nil || snap.Validate() != nil {
			return
		}
		if err := WriteFamilies(io.Discard, snap.Families); err != nil {
			t.Fatalf("a snapshot that validates failed to render: %v", err)
		}
	})
}
