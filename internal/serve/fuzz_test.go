package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mamdr/internal/quality"
	"mamdr/internal/telemetry"
)

// The three JSON bodies a client hands the server — /predict, /feedback
// and /admin/publish — fuzzed through Handler(), as a request arrives.
// Whatever the bytes, the handler must not panic and must answer one of
// the statuses Handler documents; a 200 must answer what the body asked.
// The seeds run under plain `go test`.

func fuzzPost(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// expectStatus fails on a status outside ok and reports whether it was 200.
func expectStatus(t *testing.T, w *httptest.ResponseRecorder, body []byte, ok ...int) bool {
	t.Helper()
	for _, code := range ok {
		if w.Code == code {
			return code == http.StatusOK
		}
	}
	t.Fatalf("body %q: status %d (%s), want one of %v", body, w.Code, strings.TrimSpace(w.Body.String()), ok)
	return false
}

// predictBodySeeds are FuzzPredictBody's seeds, and FuzzPredictDecode's
// first ones.
var predictBodySeeds = []string{
	`{"domain":0,"users":[0,1,2],"items":[2,1,0]}`,
	`{"domain":1,"users":[3],"items":[4]} trailing bytes`,
	`{"domain":0,"users":[0],"items":[0],"extra":{"x":[1,2]}}`,
	`{"domain":0,"users":[0,1],"items":[0]}`,
	`{"domain":0,"users":[],"items":[]}`,
	`{"domain":0,"users":null,"items":null}`,
	`{"domain":-1,"users":[0],"items":[0]}`,
	`{"domain":99,"users":[0],"items":[0]}`,
	`{"domain":0,"users":[-1],"items":[0]}`,
	`{"domain":0,"users":[0],"items":[1000000000]}`,
	`{"domain":0,"users":[0],"items":[1e3]}`,
	`{"domain":0.5,"users":[0],"items":[0]}`,
	`{"domain":"0","users":[0],"items":[0]}`,
	`{"domain":9223372036854775808,"users":[0],"items":[0]}`,
	`[]`, `null`, `{`, ``,
	`{"domain":0,"users":[` + strings.Repeat("0,", maxBodyBytes/2) + `0],"items":[0]}`,
}

// FuzzPredictBody: a 200 carries one probability per user-item pair of
// the body as the handler decoded it, each strictly inside (0, 1).
func FuzzPredictBody(f *testing.F) {
	st, ds, _ := testState(f)
	h := NewWithOptions(st, ds, Options{}).Handler()
	for _, body := range predictBodySeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := fuzzPost(h, "/predict", body)
		if !expectStatus(t, w, body, http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge) {
			return
		}
		var req PredictRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("body %q: 200 for a body that does not decode: %v", body, err)
		}
		var resp PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Probabilities) != len(req.Users) {
			t.Fatalf("body %q: %d probabilities for %d pairs", body, len(resp.Probabilities), len(req.Users))
		}
		for i, p := range resp.Probabilities {
			if !(p > 0 && p < 1) {
				t.Fatalf("body %q: probability %d = %v, outside (0,1)", body, i, p)
			}
		}
	})
}

// FuzzFeedbackBody: before every body a two-pair prediction is parked
// under request ID "fz"; a 200 joined exactly the body's labels to it.
func FuzzFeedbackBody(f *testing.F) {
	st, ds, _ := testState(f)
	s := NewWithOptions(st, ds, Options{Quality: quality.NewTracker(telemetry.New(), quality.Options{})})
	h := s.Handler()
	for _, body := range []string{
		`{"request_id":"fz","labels":[1,0]}`,
		`{"request_id":"fz","labels":[0.7,-3]} trailing bytes`,
		`{"request_id":"fz","labels":[1]}`,
		`{"request_id":"fz","labels":[]}`,
		`{"request_id":"fz","labels":null}`,
		`{"request_id":"fz","labels":["1","0"]}`,
		`{"request_id":"other","labels":[1,0]}`,
		`{"request_id":"","labels":[1,0]}`,
		`{"labels":[1,0]}`,
		`{"request_id":7,"labels":[1,0]}`,
		`[]`, `null`, `{`, ``,
		`{"request_id":"fz","labels":[` + strings.Repeat("1,", maxBodyBytes/2) + `0]}`,
	} {
		f.Add([]byte(body))
	}
	park := PredictRequest{Domain: 0, Users: []int{0, 1}, Items: []int{1, 0}}
	f.Fuzz(func(t *testing.T, body []byte) {
		if w := predictRID(t, h, "fz", park); w.Code != http.StatusOK {
			t.Fatalf("parking a prediction: %d %s", w.Code, w.Body)
		}
		w := fuzzPost(h, "/feedback", body)
		if !expectStatus(t, w, body, http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge) {
			return
		}
		var req FeedbackRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("body %q: 200 for a body that does not decode: %v", body, err)
		}
		var resp FeedbackResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if req.RequestID != "fz" || resp.Joined != len(park.Users) || resp.Domain != ds.Domains[0].Name {
			t.Fatalf("body %q: joined %+v, want %d labels of request fz in domain %s", body, resp, len(park.Users), ds.Domains[0].Name)
		}
	})
}

// FuzzPublishBody: a 200 installed (no rollout gate is attached) a
// version newer than the incumbent it replaced. Paths are the fuzzer's
// to pick only among a good checkpoint, a corrupt one and a missing one:
// it must not point the server at /dev/zero.
func FuzzPublishBody(f *testing.F) {
	st, ds, _ := testState(f)
	dir := f.TempDir()
	good, corrupt, missing := filepath.Join(dir, "good.ckpt"), filepath.Join(dir, "corrupt.ckpt"), filepath.Join(dir, "missing.ckpt")
	if err := st.Save(good); err != nil {
		f.Fatal(err)
	}
	if err := os.WriteFile(corrupt, []byte("not a checkpoint"), 0o644); err != nil {
		f.Fatal(err)
	}
	ours := map[string]bool{good: true, corrupt: true, missing: true}
	s := NewWithOptions(st, ds, Options{})
	h := s.Handler()
	for _, body := range []string{
		fmt.Sprintf(`{"path":%q}`, good),
		fmt.Sprintf(`{"path":%q,"version":40} trailing bytes`, good),
		fmt.Sprintf(`{"path":%q,"version":1}`, good),
		fmt.Sprintf(`{"path":%q,"version":18446744073709551615}`, good),
		fmt.Sprintf(`{"path":%q}`, good), // the next version would wrap to 0
		fmt.Sprintf(`{"path":%q}`, corrupt),
		fmt.Sprintf(`{"path":%q}`, missing),
		fmt.Sprintf(`{"path":%q,"source":"upstream"}`, good),
		fmt.Sprintf(`{"path":%q,"version":-1}`, good),
		`{"source":"upstream"}`,
		`{"source":"elsewhere"}`,
		`{"path":7}`,
		`{}`, `[]`, `null`, `{`, ``,
		`{"source":"upstream","x":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PublishRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && req.Path != "" && !ours[req.Path] {
			t.Skip("not one of the fuzz target's files")
		}
		before, _ := s.Versions()
		w := fuzzPost(h, "/admin/publish", body)
		if !expectStatus(t, w, body, http.StatusOK, http.StatusBadRequest, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity) {
			return
		}
		var resp PublishResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if inc, _ := s.Versions(); resp.Canary || resp.Version <= before || inc != resp.Version {
			t.Fatalf("body %q: published %+v over v%d, incumbent now v%d", body, resp, before, inc)
		}
	})
}
