// Tests for the zero-copy parameter binding: bound serving against
// restore-then-forward for every model structure, and the two things a
// by-reference binding must never do — leave the caller's model changed,
// or write into a published snapshot.

package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mamdr/internal/core"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/metrics"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/quant"
	"mamdr/internal/synth"
)

// referenceScores is restore-then-forward on a private model: θ is
// copied into the model's own tensors, then the batch is scored.
func referenceScores(m models.Model, theta paramvec.Vector, b *data.Batch) []float64 {
	paramvec.Restore(m.Parameters(), theta)
	logits := m.Forward(b, false)
	defer logits.Release()
	return framework.SigmoidAll(logits)
}

// int8RoundTrip is θ with every embedding table encoded and decoded by
// the snapshot codec — what an int8 snapshot serves, as plain floats.
func int8RoundTrip(m models.Model, theta paramvec.Vector) paramvec.Vector {
	out := theta.Clone()
	params := m.Parameters()
	for p := range models.EmbeddingTablesOf(m) {
		out[p] = quant.Quantize(theta[p], params[p].Rows, params[p].Cols).Dequantize()
	}
	return out
}

// modelFingerprint records a model's parameter values and the identity
// of their backing arrays.
type modelFingerprint struct {
	values  paramvec.Vector
	headers []*float64
}

func fingerprint(m models.Model) modelFingerprint {
	params := m.Parameters()
	fp := modelFingerprint{values: paramvec.Snapshot(params), headers: make([]*float64, len(params))}
	for i, p := range params {
		fp.headers[i] = &p.Data[0]
	}
	return fp
}

func (fp modelFingerprint) mustMatch(t *testing.T, m models.Model, when string) {
	t.Helper()
	for i, p := range m.Parameters() {
		if len(p.Data) != len(fp.values[i]) || &p.Data[0] != fp.headers[i] {
			t.Fatalf("%s: tensor %d no longer points at the model's own storage", when, i)
		}
		for j, v := range fp.values[i] {
			if math.Float64bits(p.Data[j]) != math.Float64bits(v) {
				t.Fatalf("%s: tensor %d[%d] = %v, was %v", when, i, j, p.Data[j], v)
			}
		}
	}
}

// TestBoundServingMatchesRestoreThenForward covers every registered
// model structure, on learned embeddings and on a fixed-feature preset
// (no tables to bind), × {off, int8} × {inline, BatchMax 64}, with a
// domain registered at runtime — or, for the structures with per-domain
// towers, refused with 409 and nothing registered: each served score is
// bit-identical to
// restore-then-forward on a private model — of θ_S + θ_i for "off", of
// its int8 round trip for "int8", which in turn stays within the
// TestQuantAUCBudget tolerance of the exact scores.
func TestBoundServingMatchesRestoreThenForward(t *testing.T) {
	domains := []synth.DomainSpec{
		{Name: "a", Samples: 260, CTRRatio: 0.3},
		{Name: "b", Samples: 180, CTRRatio: 0.4},
	}
	datasets := []*data.Dataset{
		synth.Generate(synth.Config{Name: "bind-learned", Seed: 67, ConflictStrength: 0.5, Domains: domains}),
		synth.Generate(synth.Config{Name: "bind-fixed", Seed: 69, ConflictStrength: 0.5, FixedFeatures: true, Domains: domains}),
	}
	for _, ds := range datasets {
		for _, name := range models.Names() {
			factory := func() models.Model {
				return models.MustNew(name, models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{8}, Seed: 5})
			}
			trained := framework.MustNew("mamdr").Fit(factory(), ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*core.State)
			own := fingerprint(trained.Model)
			for _, mode := range []string{"off", "int8"} {
				for _, batchMax := range []int{0, 64} {
					t.Run(fmt.Sprintf("%s/%s/%s/batch%d", ds.Name, name, mode, batchMax), func(t *testing.T) {
						// A state of its own: the reference registers the
						// runtime domain on it.
						st := &core.State{Model: trained.Model, Shared: trained.Shared,
							Specific: append([]paramvec.Vector(nil), trained.Specific...)}
						checkBoundServing(t, st, ds, name, factory, mode, batchMax)
						own.mustMatch(t, trained.Model, "after the server's lifetime")
					})
				}
			}
		}
	}
}

// routesByDomain lists the structures that build one sub-network per
// training domain: they cannot score an id registered after they were
// built, so the server must refuse to register one.
var routesByDomain = map[string]bool{"sharedbottom": true, "mmoe": true, "cgc": true, "ple": true, "star": true}

func checkBoundServing(t *testing.T, st *core.State, ds *data.Dataset, name string, factory func() models.Model, mode string, batchMax int) {
	s := NewWithOptions(st, ds, Options{
		Replicas: 2, ReplicaFactory: factory, MaxQueue: 1024,
		SnapshotQuant: mode, BatchMax: batchMax,
	})
	defer s.Close()
	h := s.Handler()
	runtimeDomain := -1
	if w := postJSON(t, h, "/domains", nil); routesByDomain[name] {
		if w.Code != http.StatusConflict {
			t.Fatalf("POST /domains on %s = %d, want 409: %s", name, w.Code, w.Body)
		}
		if n := s.view.Load().incumbent.numDomains(); n != ds.NumDomains() || len(st.Specific) != ds.NumDomains() {
			t.Fatalf("refused registration left %d served domains, %d specifics; want %d", n, len(st.Specific), ds.NumDomains())
		}
		// The refusal stands in for this panic, which names what failed.
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, part := range []string{st.Model.Name(), fmt.Sprintf("%d per-domain towers", ds.NumDomains()), fmt.Sprintf("domain %d", ds.NumDomains())} {
					if !strings.Contains(msg, part) {
						t.Fatalf("%s Forward on an unbuilt domain panicked with %q, want it to name %q", name, msg, part)
					}
				}
			}()
			b := ds.FullBatch(0, data.Test)
			b.Domain = ds.NumDomains()
			st.Model.Forward(b, false)
		}()
	} else {
		var added AddDomainResponse
		if err := json.NewDecoder(w.Body).Decode(&added); w.Code != http.StatusOK || err != nil {
			t.Fatalf("POST /domains on %s = %d, %v: %s", name, w.Code, err, w.Body)
		}
		if runtimeDomain = added.ID; runtimeDomain != ds.NumDomains() {
			t.Fatalf("runtime domain id = %d, want %d", runtimeDomain, ds.NumDomains())
		}
		if len(st.Specific) != ds.NumDomains() {
			t.Fatalf("registration changed the caller's state: %d specifics, want %d", len(st.Specific), ds.NumDomains())
		}
		st.AddDomain() // the registered domain serves θ_S + 0
	}

	private := factory()
	// Every test-split row of every trained domain, three pairs per
	// request, plus the same pairs on the runtime domain (θ_S alone).
	var reqs []PredictRequest
	var reqLabels [][]float64
	for d := 0; d < ds.NumDomains(); d++ {
		rows := ds.Domains[d].Test
		for i := 0; i+3 <= len(rows); i += 3 {
			req := PredictRequest{Domain: d}
			var labels []float64
			for _, in := range rows[i : i+3] {
				req.Users, req.Items = append(req.Users, in.User), append(req.Items, in.Item)
				labels = append(labels, in.Label)
			}
			reqs, reqLabels = append(reqs, req), append(reqLabels, labels)
			if d == 0 && runtimeDomain >= 0 {
				req.Domain = runtimeDomain
				reqs, reqLabels = append(reqs, req), append(reqLabels, labels)
			}
		}
	}
	if len(reqs) < 20 {
		t.Fatalf("only %d requests: the comparison needs the test split", len(reqs))
	}

	var got []PredictResponse
	if batchMax > 0 {
		got = concurrentPredict(t, h, nil, reqs) // all at once against 2 replicas, so flushes carry several riders
	} else {
		got = make([]PredictResponse, len(reqs))
		for i, req := range reqs {
			w := postJSON(t, h, "/predict", req)
			if w.Code != http.StatusOK {
				t.Fatalf("predict %d = %d: %s", i, w.Code, w.Body)
			}
			if err := json.NewDecoder(w.Body).Decode(&got[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	var served, exact, labels []float64
	for i, req := range reqs {
		ins := make([]data.Interaction, len(req.Users))
		for j := range ins {
			ins[j] = data.Interaction{User: req.Users[j], Item: req.Items[j]}
		}
		b := ds.MakeBatch(req.Domain, ins)
		theta := st.ComposedFor(req.Domain)
		want := theta
		if mode == "int8" {
			want = int8RoundTrip(private, theta)
		}
		ref := referenceScores(private, want, b)
		if len(got[i].Probabilities) != len(ref) {
			t.Fatalf("request %d: %d scores, want %d", i, len(got[i].Probabilities), len(ref))
		}
		for j := range ref {
			if math.Float64bits(got[i].Probabilities[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("request %d (domain %d) pair %d: served %v, restore-then-forward %v (must be bit-identical)",
					i, req.Domain, j, got[i].Probabilities[j], ref[j])
			}
		}
		if mode == "int8" && req.Domain != runtimeDomain {
			served = append(served, got[i].Probabilities...)
			exact = append(exact, referenceScores(private, theta, b)...)
			labels = append(labels, reqLabels[i]...)
		}
	}
	if mode == "int8" {
		if delta := metrics.AUC(served, labels) - metrics.AUC(exact, labels); delta < -0.002 {
			t.Fatalf("int8 serving costs %+.4f AUC against exact scores, budget -0.002", delta)
		}
	}
}

// vectorsChecksum hashes the bit patterns of θ_S and every θ_i.
func vectorsChecksum(shared paramvec.Vector, specific []paramvec.Vector) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range append([]paramvec.Vector{shared}, specific...) {
		for _, seg := range v {
			for _, x := range seg {
				bits := math.Float64bits(x)
				for k := range buf {
					buf[k] = byte(bits >> (8 * k))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestNothingWritesThroughBinding is the storm (run it under -race):
// concurrent predictions across every domain, on both row sources and
// both predict paths, with a publish landing mid-way. Neither the
// snapshot served before the publish nor the one after may change by a
// bit, and once the server is closed the caller's model is as Fit left
// it.
func TestNothingWritesThroughBinding(t *testing.T) {
	for _, cfg := range []Options{
		{SnapshotQuant: "off"},
		{SnapshotQuant: "int8", BatchMax: 64},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s/batch%d", cfg.SnapshotQuant, cfg.BatchMax), func(t *testing.T) {
			st, ds, factory := testState(t)
			own := fingerprint(st.Model)
			cfg.Replicas, cfg.ReplicaFactory, cfg.MaxQueue = 4, factory, 4096
			s := NewWithOptions(st, ds, cfg)
			h := s.Handler()

			// The published state differs in every θ_i.
			next := &core.State{Model: factory(), Shared: st.Shared, Specific: make([]paramvec.Vector, len(st.Specific))}
			for d := range next.Specific {
				next.Specific[d] = paramvec.Scale(st.Specific[d], 0.5)
			}
			first := s.view.Load().incumbent
			firstSum := vectorsChecksum(first.shared, first.specific)
			nextSum := vectorsChecksum(next.Shared, next.Specific)

			// Each client keeps predicting until the publish has landed,
			// then sends as many requests again: the swap happens among
			// live forwards and both snapshots see every domain.
			const clients, perPhase = 8, 30
			var wg, warm sync.WaitGroup
			var published atomic.Bool
			warm.Add(clients)
			errs := make(chan string, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					after := 0
					for i := 0; after < perPhase; i++ {
						if i == perPhase {
							warm.Done()
						}
						if published.Load() && i > perPhase {
							after++
						}
						req := PredictRequest{
							Domain: (c + i) % ds.NumDomains(),
							Users:  []int{(c*7 + i) % ds.NumUsers, i % ds.NumUsers},
							Items:  []int{(c + i*3) % ds.NumItems, (i + 5) % ds.NumItems},
						}
						if w := postJSON(t, h, "/predict", req); w.Code != http.StatusOK {
							errs <- fmt.Sprintf("client %d request %d = %d: %s", c, i, w.Code, w.Body)
							if i < perPhase {
								warm.Done()
							}
							return
						}
					}
				}(c)
			}
			warm.Wait()
			_, _, err := s.Publish(next, 0, 0, nil)
			published.Store(true) // before any Fatal: the clients wait for it
			if err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
			second := s.view.Load().incumbent
			if second == first {
				t.Fatal("the publish did not swap the snapshot")
			}
			s.Close()

			if got := vectorsChecksum(first.shared, first.specific); got != firstSum {
				t.Fatalf("the pre-publish snapshot changed under serving: checksum %x, was %x", got, firstSum)
			}
			if got := vectorsChecksum(second.shared, second.specific); got != nextSum {
				t.Fatalf("the published snapshot changed under serving: checksum %x, was %x", got, nextSum)
			}
			// The dense segments models pointed at are compositions, not
			// the vectors themselves: they must still be the exact sums.
			for _, sn := range []*snapshot{first, second} {
				for d := range sn.domains {
					c := sn.domains[d].Load()
					if c == nil {
						t.Fatalf("domain %d was never composed: the storm did not reach it", d)
					}
					sum := paramvec.Sum(sn.shared, sn.specific[d])
					for i, seg := range c.Dense {
						for j := range seg {
							if math.Float64bits(seg[j]) != math.Float64bits(sum[i][j]) {
								t.Fatalf("composed dense segment %d[%d] of domain %d changed under serving", i, j, d)
							}
						}
					}
				}
			}
			own.mustMatch(t, st.Model, "after the storm")
		})
	}
}
