package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzPredictDecode: for every body, decodePredict — the one-pass scanner
// where it applies, json.Decoder elsewhere — accepts exactly the bodies
// decodeBody's json.Decoder accepts, with the same PredictRequest, and
// rejects the others with the same status and message.
func FuzzPredictDecode(f *testing.F) {
	bigInt := `{"domain":1000000000000000000,"users":[-9223372036854775808],"items":[9223372036854775807]}`
	for _, body := range append(append([]string(nil), predictBodySeeds...),
		`{"users":[1,2],"items":[3,4],"domain":1}`,
		" \t\r\n{ \"domain\" :\t2 ,\n\"users\" : [ 1 , 2 ] , \"items\":[3,4] } ",
		`{}`, `{"domain":3}`, `{"users":[5]}`, `{"domain":-0,"users":[-0],"items":[0]}`,
		`{"Domain":1,"USERS":[1],"items":[1]}`,
		`{"\u0064omain":1,"us\u0065rs":[1],"items":[1]}`,
		`{"domain":1,"users":[1],"users":[2,3],"items":[1,2]}`,
		`{"domain":1,"domain":2,"users":[1],"items":[1]}`,
		`{"domain":null,"users":[1],"items":[1]}`,
		`{"domain":0,"users":[null],"items":[1]}`,
		`{"domain":1e3,"users":[1],"items":[1]}`,
		`{"domain":1E3,"users":[1],"items":[1]}`,
		`{"domain":1.0,"users":[1],"items":[1]}`,
		`{"domain":01,"users":[1],"items":[1]}`,
		`{"domain":-,"users":[1],"items":[1]}`,
		`{"domain":+1,"users":[1],"items":[1]}`,
		`{"domain":1,"users":[1,],"items":[1]}`,
		`{"domain":1,"users":[1 2],"items":[1]}`,
		`{"domain":1,"users":[1],"items":[1],}`,
		`{"domain":1 "users":[1]}`,
		`{"domain":1,"users":[1],"items":[1]`,
		`{"domain":18446744073709551616,"users":[1],"items":[1]}`,
		`{"domain":1,"users":[-9223372036854775809],"items":[1]}`,
		bigInt,
		"\xef\xbb\xbf{\"domain\":1}",
		`{"domain":1,"users":[1],"items":[1]}`+strings.Repeat(" ", maxBodyBytes),
		`{"domain":1,"users":[1],"items":[1]}`+strings.Repeat("x", maxBodyBytes),
		`{"domain":1,"users":[`+strings.Repeat("1,", maxBodyBytes/2-20)+`1],"items":[1]}`,
	) {
		f.Add([]byte(body))
	}
	// The exact limit: a valid body of maxBodyBytes, and one a byte over.
	atLimit := []byte(`{"domain":1,"users":[1],"items":[1]}`)
	atLimit = append(atLimit, bytes.Repeat([]byte(" "), maxBodyBytes-len(atLimit))...)
	f.Add(atLimit)
	f.Add(append([]byte(`{"domain":1,"users":[`), append(bytes.Repeat([]byte("1,"), maxBodyBytes/2), "1]}"...)...))

	s := &Server{}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantRec := PredictRequest{}, httptest.NewRecorder()
		wantOK := s.decodeBody(wantRec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)), &want)
		got, gotRec := PredictRequest{}, httptest.NewRecorder()
		gotOK := s.decodePredict(gotRec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)), &got)
		short := body
		if len(short) > 80 {
			short = short[:80]
		}
		if gotOK != wantOK || gotRec.Code != wantRec.Code || gotRec.Body.String() != wantRec.Body.String() {
			t.Fatalf("body %q…: decodePredict %v %d %q, json.Decoder %v %d %q", short,
				gotOK, gotRec.Code, gotRec.Body, wantOK, wantRec.Code, wantRec.Body)
		}
		if gotOK && !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q…: decodePredict %+v, json.Decoder %+v", short, got, want)
		}
	})
}

// TestScanPredictTakesPlainBodies: the bodies clients send — compact or
// spaced, keys in any order, empty arrays, integers of either sign — take
// the one-pass scanner, not the json.Decoder fallback (FuzzPredictDecode
// holds the two equal; this holds the fast path in use).
func TestScanPredictTakesPlainBodies(t *testing.T) {
	var ints []int
	for _, body := range []string{
		`{"domain":0,"users":[0,1,2],"items":[2,1,0]}`,
		`{"domain":1,"users":[3],"items":[4]} trailing bytes`,
		" {\n \"items\" : [ 7 ],\t\"users\":[-1], \"domain\": 12 }\n",
		`{"domain":0,"users":[],"items":[]}`,
		`{"domain":-0,"users":[999999999999999999],"items":[-999999999999999999]}`,
		`{}`,
	} {
		var req PredictRequest
		if !scanPredict([]byte(body), &ints, &req) {
			t.Errorf("scanPredict refused %q", body)
		}
	}
	var req PredictRequest
	if !scanPredict([]byte(`{"users":[1,2],"domain":3,"items":[4,5]}`), &ints, &req) ||
		!reflect.DeepEqual(req, PredictRequest{Domain: 3, Users: []int{1, 2}, Items: []int{4, 5}}) {
		t.Fatalf("scanPredict decoded %+v", req)
	}
}

// TestPredictResponseBytes: writePredict writes what writeJSON writes —
// json.Encoder's bytes, Content-Type and status — for probabilities on
// both sides of encoding/json's switch to exponent form (1e-6, 1e21),
// just below 1, subnormal, zero of either sign and not finite, and for
// request IDs with bytes json.Encoder escapes: HTML's <>&, quote and
// backslash, control bytes, invalid UTF-8, U+2028 and U+2029, DEL, and
// plain non-ASCII.
func TestPredictResponseBytes(t *testing.T) {
	s := &Server{}
	probSets := [][]float64{
		nil,
		{},
		{0.5},
		{1e-6, math.Nextafter(1e-6, 0), 9.99e-7, 1e-7, 1.5e-10, 1e-100, 3.3e-300},
		{math.Nextafter(1, 0), 1 - 1e-9, 0.999999, 1, 0.1, 0.2, 0.30000000000000004},
		{5e-324, 2.2250738585072014e-308, 1e-310, -5e-324},
		{0, math.Copysign(0, -1), 1e20, 1e21, math.Nextafter(1e21, 0), 1.2345678e22, -1e-7, 123456789.125},
		{0.25, math.NaN()},
		{math.Inf(1)},
	}
	ids := []string{"", "mamdr-000001", "a<b", "x>y", "p&q", `q"uote`, `back\slash`,
		"ctl\x00\x1f", "tab\t", "bad\xff\xfeutf8", "ls\u2028ps\u2029", "del\x7f", "é"}
	for _, probs := range probSets {
		for _, id := range ids {
			resp := PredictResponse{Probabilities: probs, RequestID: id}
			want := httptest.NewRecorder()
			s.writeJSON(want, httptest.NewRequest(http.MethodPost, "/predict", nil), resp)
			got := httptest.NewRecorder()
			s.writePredict(got, httptest.NewRequest(http.MethodPost, "/predict", nil), resp)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
				got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("%v %q: writePredict %d %q %q, writeJSON %d %q %q", probs, id,
					got.Code, got.Header().Get("Content-Type"), got.Body, want.Code, want.Header().Get("Content-Type"), want.Body)
			}
			var enc bytes.Buffer
			if err := json.NewEncoder(&enc).Encode(resp); err == nil && !bytes.Equal(got.Body.Bytes(), enc.Bytes()) {
				t.Fatalf("%v %q: %q, json.Encoder %q", probs, id, got.Body, enc.Bytes())
			}
		}
	}
	// The fast path itself takes the finite scores and the plain IDs.
	if _, ok := appendPredictResponse(nil, PredictResponse{Probabilities: probSets[6], RequestID: "mamdr-000001"}); !ok {
		t.Fatal("appendPredictResponse refused finite scores and a plain request ID")
	}
}
