package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mamdr/internal/serve"
)

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var total float64
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cum, rng.Float64())
}

// request is one pre-encoded /predict call. The program only ever sees
// body; the rest is what the client needs to check the answer.
type request struct {
	domain int
	users  []int
	items  []int
	body   []byte
	// want holds the reference scores of the states this request may be
	// answered from (one per published checkpoint); nil unless this
	// entry is in the checked sample.
	want [][]float64
	// labels are the oracle's clicks for the pairs (serve-live feedback).
	labels []float64
}

// shape describes a workload's requests: pairs per request, whether
// all pairs share one user (ranking a candidate list), and how many
// leading domains the Zipf(1.0) domain mix covers.
type shape struct {
	pairs   int
	oneUser bool
	domains int
}

// buildPool draws n requests from the seed. Equal seeds give equal
// pools; the stream is all the program ever receives.
func buildPool(seed int64, n int, sh shape, numUsers, numItems int) []request {
	rng := rand.New(rand.NewSource(seed))
	z := newZipf(sh.domains, 1.0)
	pool := make([]request, n)
	for i := range pool {
		r := request{domain: z.draw(rng), users: make([]int, sh.pairs), items: make([]int, sh.pairs)}
		u := rng.Intn(numUsers)
		for j := 0; j < sh.pairs; j++ {
			if !sh.oneUser {
				u = rng.Intn(numUsers)
			}
			r.users[j], r.items[j] = u, rng.Intn(numItems)
		}
		body, err := json.Marshal(serve.PredictRequest{Domain: r.domain, Users: r.users, Items: r.items})
		if err != nil {
			panic(err) // ints always encode
		}
		r.body = body
		pool[i] = r
	}
	return pool
}

// client is one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}, Timeout: 30 * time.Second},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and decodes a 200 answer into out.
func (c *client) post(path string, body []byte, out any) error {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

// checkScores verifies one /predict answer: one score per pair, each
// finite and inside (0,1), and — for a checked pool entry — equal to a
// reference within tol (0 = bit for bit).
func checkScores(r *request, probs []float64, tol float64) error {
	if len(probs) != len(r.users) {
		return fmt.Errorf("%d scores for %d pairs", len(probs), len(r.users))
	}
	for _, p := range probs {
		if !(p > 0 && p < 1) {
			return fmt.Errorf("score %v outside (0,1)", p)
		}
	}
	if r.want == nil {
		return nil
	}
	for _, ref := range r.want {
		match := true
		for i, p := range probs {
			if math.Abs(p-ref[i]) > tol {
				match = false
				break
			}
		}
		if match {
			return nil
		}
	}
	return fmt.Errorf("scores match no published state within %g (domain %d)", tol, r.domain)
}

// loadSpec configures one measured window.
type loadSpec struct {
	window time.Duration
	// rate > 0 makes the window an open loop: request k is due at
	// k/rate seconds whatever the server does, and is timed from then.
	// Otherwise each client sends its next request when the last one
	// has been answered.
	rate float64
	tol  float64
	// feedbackEvery > 0 follows every n-th answered prediction with a
	// POST /feedback carrying the oracle's labels.
	feedbackEvery int
	// publish, when set, has client 0 POST /admin/publish the paths in
	// turn every publishEvery.
	publish      []string
	publishEvery time.Duration
	rec          *recorder
}

// loadResult is what a window observed.
type loadResult struct {
	predicts  []sample
	elapsed   time.Duration
	late      int // open loop: sends that started more than 1 ms after they were due
	feedbacks int
	publishes int
	failed    int // operations of any kind that failed
	checked   int // answers compared with a reference
	errs      []string
	publishMS []float64
}

func (lr *loadResult) attempted() int { return len(lr.predicts) + lr.feedbacks + lr.publishes }

// runLoad drives the server at base with one goroutine per pool and
// returns when the window has passed and every request is answered.
func runLoad(base string, pools [][]request, ls loadSpec) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		res.failed++
		if len(res.errs) < 5 {
			res.errs = append(res.errs, err.Error())
		}
		mu.Unlock()
	}
	per := make([][]sample, len(pools))
	var next atomic.Int64 // open loop: index of the next due request
	var late, feedbacks, publishes, checked atomic.Int64
	var publishMS []float64
	start := time.Now()
	interval := time.Duration(0)
	if ls.rate > 0 {
		interval = time.Duration(float64(time.Second) / ls.rate)
	}

	var wg sync.WaitGroup
	for ci := range pools {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			pool := pools[ci]
			nextPublish := ls.publishEvery
			published := 0
			for i := 0; ; i++ {
				var due time.Duration
				var r *request
				if ls.rate > 0 {
					k := next.Add(1) - 1
					due = time.Duration(k) * interval
					if due >= ls.window {
						return
					}
					waitUntil(start.Add(due))
					if time.Since(start)-due > time.Millisecond {
						late.Add(1)
					}
					r = &pool[int(k)%len(pool)]
				} else {
					due = time.Since(start)
					if due >= ls.window {
						return
					}
					r = &pool[i%len(pool)]
				}

				_, sp := ls.rec.root("client.predict")
				var resp serve.PredictResponse
				err := c.post("/predict", r.body, &resp)
				if err == nil {
					err = checkScores(r, resp.Probabilities, ls.tol)
					if r.want != nil {
						checked.Add(1)
					}
				}
				sp.End()
				per[ci] = append(per[ci], sample{at: due, lat: time.Since(start) - due, ok: err == nil})
				if err != nil {
					fail(err)
					continue
				}

				if ls.feedbackEvery > 0 && i%ls.feedbackEvery == 0 {
					feedbacks.Add(1)
					body, _ := json.Marshal(serve.FeedbackRequest{RequestID: resp.RequestID, Labels: r.labels})
					var fr serve.FeedbackResponse
					if err := c.post("/feedback", body, &fr); err != nil {
						fail(err)
					} else if fr.Joined != len(r.labels) {
						fail(fmt.Errorf("/feedback joined %d of %d labels", fr.Joined, len(r.labels)))
					}
				}
				if ci == 0 && len(ls.publish) > 0 && time.Since(start) >= nextPublish {
					nextPublish += ls.publishEvery
					publishes.Add(1)
					body, _ := json.Marshal(serve.PublishRequest{Path: ls.publish[published%len(ls.publish)]})
					published++
					t := time.Now()
					var pr serve.PublishResponse
					if err := c.post("/admin/publish", body, &pr); err != nil {
						fail(err)
					}
					publishMS = append(publishMS, float64(time.Since(t))/float64(time.Millisecond))
				}
			}
		}(ci)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if res.elapsed < ls.window {
		res.elapsed = ls.window
	}
	for _, p := range per {
		res.predicts = append(res.predicts, p...)
	}
	res.late = int(late.Load())
	res.feedbacks = int(feedbacks.Load())
	res.publishes = int(publishes.Load())
	res.checked = int(checked.Load())
	res.publishMS = publishMS
	return res
}

// spinWindow is how long before a due time the open loop stops sleeping
// and yields instead. A timer wake-up on an idle core of this VM can come
// a millisecond late, which the loop would book as server latency; a
// longer spin would take a visible share of the two cores from the server.
const spinWindow = 200 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
