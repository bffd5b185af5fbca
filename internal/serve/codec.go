package serve

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// The /predict codec. A ranking request is 512 integers in and 256
// floats out; encoding/json's reflection costs more than the arithmetic
// around it. decodePredict and appendPredictResponse handle the bodies
// whose meaning they can prove equal to encoding/json's and hand every
// other body to encoding/json, so each body keeps the status and the
// value it always had (FuzzPredictDecode, TestPredictResponseBytes).

// codecBuf is a request's scratch: the body bytes, the integers of its
// arrays, and the response bytes. Kept in codecPool.
type codecBuf struct {
	body []byte
	ints []int
	out  []byte
}

var codecPool = sync.Pool{New: func() any { return new(codecBuf) }}

// maxPooledBytes drops a buffer grown past it instead of keeping it in
// codecPool: a rare 1 MiB body does not pin 1 MiB per P.
const maxPooledBytes = 64 << 10

func putCodecBuf(cb *codecBuf) {
	if cap(cb.body) > maxPooledBytes || cap(cb.out) > maxPooledBytes || cap(cb.ints) > maxPooledBytes/8 {
		return
	}
	codecPool.Put(cb)
}

// decodePredict is decodeBody for a PredictRequest: it decodes r's body,
// read up to maxBodyBytes, into req, which must be zero. A body read to
// its end under the limit that scanPredict accepts is decoded in one
// pass; any other body — a read error, a body at the limit, anything
// scanPredict does not accept — goes to decodeFrom's json.Decoder over
// the same byte stream (the bytes read so far, then the rest of the
// limited reader, which repeats its error). On failure it has answered
// 413 or 400 and returns false.
func (s *Server) decodePredict(w http.ResponseWriter, r *http.Request, req *PredictRequest) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	cb := codecPool.Get().(*codecBuf)
	defer putCodecBuf(cb)
	var err error
	cb.body, err = readBody(body, cb.body[:0])
	if err == io.EOF && scanPredict(cb.body, &cb.ints, req) {
		return true
	}
	*req = PredictRequest{}
	return s.decodeFrom(w, io.MultiReader(bytes.NewReader(cb.body), body), req)
}

// readBody appends r's bytes to buf until r fails — io.EOF at the end —
// or buf holds maxBodyBytes; it never asks r for more than that, so a
// body at the limit has not yet tripped http.MaxBytesReader.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for len(buf) < maxBodyBytes {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 4096)
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), maxBodyBytes)])
		buf = buf[:len(buf)+n]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// scanPredict decodes b into req when b starts with a JSON object that
// json.Decoder provably decodes to the same PredictRequest: optional
// whitespace, then an object whose keys are exactly "domain", "users" and
// "items", each at most once, in any order, the first an integer literal
// and the others arrays of them (or empty). Whatever follows the object
// is left unread, as json.Decoder leaves it. It reports false, with req
// in an unspecified state, for anything else: other or escaped or
// case-variant keys, repeated keys, null, strings, fractions, exponents,
// leading zeros, integers that may not fit an int. ints is scratch.
func scanPredict(b []byte, ints *[]int, req *PredictRequest) bool {
	sc := jsonScanner{b: b}
	if !sc.next('{') {
		return false
	}
	var seen [3]bool // domain, users, items
	var spans [3][2]int
	list := (*ints)[:0]
	defer func() { *ints = list[:0] }()
	if !sc.next('}') {
		for {
			key := sc.key()
			if key < 0 || seen[key] || !sc.next(':') {
				return false
			}
			seen[key] = true
			ok := false
			if key == 0 {
				req.Domain, ok = sc.integer()
			} else {
				from := len(list)
				list, ok = sc.array(list)
				spans[key] = [2]int{from, len(list)}
			}
			if !ok {
				return false
			}
			if sc.next('}') {
				break
			}
			if !sc.next(',') {
				return false
			}
		}
	}
	// One allocation for both arrays; a present empty array is an empty,
	// non-nil slice and an absent one nil, as json.Decoder leaves them.
	all := make([]int, len(list))
	copy(all, list)
	if seen[1] {
		req.Users = all[spans[1][0]:spans[1][1]:spans[1][1]]
	}
	if seen[2] {
		req.Items = all[spans[2][0]:spans[2][1]:spans[2][1]]
	}
	return true
}

// jsonScanner walks a byte slice for scanPredict.
type jsonScanner struct {
	b []byte
	i int
}

// skipSpace skips JSON whitespace.
func (sc *jsonScanner) skipSpace() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (sc *jsonScanner) next(c byte) bool {
	sc.skipSpace()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// predictKeys are PredictRequest's JSON keys, quotes included, in the
// order of scanPredict's seen.
var predictKeys = [3]string{`"domain"`, `"users"`, `"items"`}

// key skips whitespace and consumes one of predictKeys, returning its
// index, or returns −1.
func (sc *jsonScanner) key() int {
	sc.skipSpace()
	for k, name := range predictKeys {
		if end := sc.i + len(name); end <= len(sc.b) && string(sc.b[sc.i:end]) == name {
			sc.i = end
			return k
		}
	}
	return -1
}

// array skips whitespace and consumes a JSON array of integer literals,
// appending them to list.
func (sc *jsonScanner) array(list []int) ([]int, bool) {
	if !sc.next('[') {
		return list, false
	}
	if sc.next(']') {
		return list, true
	}
	for {
		v, ok := sc.integer()
		if !ok {
			return list, false
		}
		list = append(list, v)
		if sc.next(']') {
			return list, true
		}
		if !sc.next(',') {
			return list, false
		}
	}
}

// maxIntDigits is the most decimal digits an int literal may have and
// still fit an int on any platform's int size (18 for 64 bits, 9 for 32).
const maxIntDigits = (strconv.IntSize - 1) * 3 / 10

// integer skips whitespace and consumes a JSON integer literal — an
// optional minus, then 0 or a non-zero digit and more digits — that a
// fraction or exponent does not follow, of at most maxIntDigits digits:
// strconv.ParseInt's value, which is json.Decoder's for an int field.
func (sc *jsonScanner) integer() (int, bool) {
	sc.skipSpace()
	b, i := sc.b, sc.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	digits := b[start:i]
	if len(digits) == 0 || len(digits) > maxIntDigits || (len(digits) > 1 && digits[0] == '0') {
		return 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	v := 0
	for _, c := range digits {
		v = v*10 + int(c-'0')
	}
	if neg {
		v = -v
	}
	sc.i = i
	return v, true
}

// writePredict writes resp as writeJSON would, without reflection; a
// response appendPredictResponse does not take goes to writeJSON.
func (s *Server) writePredict(w http.ResponseWriter, r *http.Request, resp PredictResponse) {
	cb := codecPool.Get().(*codecBuf)
	defer putCodecBuf(cb)
	var ok bool
	if cb.out, ok = appendPredictResponse(cb.out[:0], resp); !ok {
		s.writeJSON(w, r, resp)
		return
	}
	s.writeBody(w, r, cb.out)
}

// appendPredictResponse appends the bytes json.Encoder writes for resp,
// newline included. It reports false for what it does not reproduce: a
// probability that is not finite (json.Encoder's error) and a request ID
// with a byte json.Encoder would escape or that is not printable ASCII.
func appendPredictResponse(b []byte, resp PredictResponse) ([]byte, bool) {
	b = append(b, `{"probabilities":`...)
	if resp.Probabilities == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range resp.Probabilities {
			if math.IsInf(p, 0) || math.IsNaN(p) {
				return b, false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, p)
		}
		b = append(b, ']')
	}
	if id := resp.RequestID; id != "" {
		for i := 0; i < len(id); i++ {
			if c := id[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return b, false
			}
		}
		b = append(b, `,"request_id":"`...)
		b = append(b, id...)
		b = append(b, '"')
	}
	return append(b, "}\n"...), true
}

// appendJSONFloat appends finite f as encoding/json writes a float64:
// the shortest decimal that reads back as f, in 'f' form, or 'e' form
// outside [1e-6, 1e21) with a two-digit negative exponent cut to one
// digit (1e-07 → 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
