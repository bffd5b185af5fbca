// Tests for the domain-parallel DR phase: the differential oracle (any
// worker count against the sequential per-target loop), the kernel
// budget, worker panics, replicas, and the phase's spans and histogram.

package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/autograd/kernels"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/synth"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

func mustMatchStates(t *testing.T, what string, got, want *State) {
	t.Helper()
	mustMatchVectors(t, what+": θ_S", got.Shared, want.Shared)
	if len(got.Specific) != len(want.Specific) {
		t.Fatalf("%s: %d specifics, want %d", what, len(got.Specific), len(want.Specific))
	}
	for d := range want.Specific {
		mustMatchVectors(t, fmt.Sprintf("%s: θ_%d", what, d), got.Specific[d], want.Specific[d])
	}
}

// sequentialFit is MAMDR.Fit written against the public per-target
// function, the way cmd/mamdr-bench's tracedFit writes it: one DN epoch,
// then DomainRegularization for every target in order on the epoch RNG.
func sequentialFit(m models.Model, ds *data.Dataset, cfg framework.Config) *State {
	cfg = cfg.WithDefaults()
	st := &State{Model: m, Shared: paramvec.Snapshot(m.Parameters())}
	for range ds.Domains {
		st.AddDomain()
	}
	outer := optim.New(cfg.OuterOpt, cfg.OuterLR)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng := EpochRNG(cfg.Seed, epoch)
		DomainNegotiationEpoch(st, ds, cfg, outer, rng)
		for i := range ds.Domains {
			DomainRegularization(st, ds, i, cfg, rng)
		}
	}
	return st
}

// TestDRPhaseIndependentOfWorkers is the oracle of the parallel phase:
// for every structure, with and without dropout, under a row-stepping and
// a dense inner optimizer, Fit at a thread cap of 1, 2 and 5 (one, two
// and — four targets — four workers) and the sequential per-target loop
// all end on the same θ_S and the same θ_i, float for float. Two epochs,
// so the second DN epoch runs on a model the first DR phase left behind.
func TestDRPhaseIndependentOfWorkers(t *testing.T) {
	defer kernels.SetThreads(0)
	ds := synth.Generate(synth.Config{
		Name: "dr-workers", Seed: 33, ConflictStrength: 0.8,
		Domains: []synth.DomainSpec{
			{Name: "a", Samples: 240, CTRRatio: 0.3},
			{Name: "b", Samples: 160, CTRRatio: 0.4},
			{Name: "c", Samples: 100, CTRRatio: 0.25},
			{Name: "sparse", Samples: 40, CTRRatio: 0.3},
		},
	})
	for _, name := range models.Names() {
		for _, dropout := range []float64{0, 0.2} {
			for _, inner := range []string{"sgd", "adam"} {
				t.Run(fmt.Sprintf("%s/dropout=%v/%s", name, dropout, inner), func(t *testing.T) {
					build := func() models.Model {
						return models.MustNew(name, models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{8, 4}, Dropout: dropout, Seed: 5})
					}
					cfg := framework.Config{Epochs: 2, BatchSize: 32, Seed: 9, InnerOpt: inner, LR: 0.05, SampleK: 2}
					kernels.SetThreads(2)
					want := sequentialFit(build(), ds, cfg)
					for _, threads := range []int{1, 2, 5} {
						kernels.SetThreads(threads)
						got := framework.MustNew("mamdr").Fit(build(), ds, cfg).(*State)
						mustMatchStates(t, fmt.Sprintf("Fit at %d threads vs the sequential loop", threads), got, want)
					}
				})
			}
		}
	}
}

// TestFitIndependentOfKernelBackend is the determinism contract of
// internal/autograd/kernels stated end to end: what MAMDR learns cannot
// depend on the backend its products run on. Two epochs of Fit with
// dropout and two DR helpers per target end on the same θ_S and the same
// θ_i, float for float, under the straight-line Naive backend and under
// the default one — whose layers here (64-row batches into 64 and 32
// units) are past its small-product cut-off, so where that backend has
// an assembly routine for the CPU they run on it. The shard-count,
// batched-vs-inline, resume and rollback suites all lean on this.
func TestFitIndependentOfKernelBackend(t *testing.T) {
	ds := testDataset(t, 0.8)
	fit := func() *State {
		m := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 8, Hidden: []int{64, 32}, Dropout: 0.2, Seed: 5})
		cfg := framework.Config{Epochs: 2, BatchSize: 64, Seed: 9, SampleK: 2}
		return framework.MustNew("mamdr").Fit(m, ds, cfg).(*State)
	}
	prev := kernels.Use(kernels.Naive)
	defer kernels.Use(prev)
	want := fit()
	kernels.Use(prev)
	mustMatchStates(t, "Fit on the "+prev.Name()+" backend vs Naive", fit(), want)
}

// TestFitLeavesTheCallersModelInPlace: replicas are the phase's own; the
// State a Fit returns serves from the model the caller passed in, whose
// tensors are the ones it had, holding θ_S.
func TestFitLeavesTheCallersModelInPlace(t *testing.T) {
	defer kernels.SetThreads(0)
	kernels.SetThreads(3)
	ds := testDataset(t, 0.8)
	m := testModel(t, ds)
	before := m.Parameters()
	st := framework.MustNew("mamdr").Fit(m, ds, framework.Config{Epochs: 1, BatchSize: 32, Seed: 9}).(*State)
	if st.Model != m {
		t.Fatal("Fit returned a State on another model than the caller's")
	}
	for i, p := range m.Parameters() {
		if p != before[i] || &p.Data[0] != &before[i].Data[0] {
			t.Fatalf("tensor %d of the caller's model was replaced", i)
		}
		if !bitsEqual(p.Data, st.Shared[i]) {
			t.Fatalf("tensor %d of the caller's model does not hold θ_S after Fit", i)
		}
	}
}

// hooked is a Replicator that calls hook with the domain of every batch
// it is trained on, on the goroutine of the DR worker that owns it.
type hooked struct {
	models.Model
	hook func(domain int)
}

func (h hooked) Forward(b *data.Batch, training bool) *autograd.Tensor {
	if training {
		h.hook(b.Domain)
	}
	return h.Model.Forward(b, training)
}

func (h hooked) Replica() models.Model {
	return hooked{h.Model.(models.Replicator).Replica(), h.hook}
}

func (h hooked) SeedMasks(seed int64) { models.SeedMasks(h.Model, seed) }

// TestDRPhaseSplitsTheKernelBudget reads, at every training forward
// inside a phase, how many goroutines a kernel may fan out to: the thread
// cap divided by the phase's workers — one at two workers on two threads,
// two at two lent-model workers on four, all of them in a one-worker
// phase — and the whole cap again once the phase has returned, also when
// it returns by re-raising a worker's panic, which names the target.
func TestDRPhaseSplitsTheKernelBudget(t *testing.T) {
	defer kernels.SetThreads(0)
	ds := testDataset(t, 0.8)
	cfg := framework.Config{BatchSize: 64, Seed: 3, SampleK: 2}.WithDefaults()
	// phase runs one DR phase and returns the distinct fan-outs its
	// workers saw.
	phase := func(wrap func(models.Model) models.Model, fault int, lend int) map[int]bool {
		var mu sync.Mutex
		seen := map[int]bool{}
		hook := func(domain int) {
			if domain == fault {
				panic("injected fault")
			}
			mu.Lock()
			seen[kernels.Fanout()] = true
			mu.Unlock()
		}
		m := hooked{testModel(t, ds), hook}
		var replicas []models.Model
		for i := 0; i < lend; i++ {
			replicas = append(replicas, m.Replica())
		}
		DomainRegularizationPhase(randomState(wrap(m), ds.NumDomains(), 17), ds, cfg, EpochRNG(1, 0), DROptions{}, replicas...)
		return seen
	}
	asIs := func(m models.Model) models.Model { return m }
	noReplicator := func(m models.Model) models.Model { return denseOnly{m} }
	mustSee := func(when string, seen map[int]bool, fanout int) {
		t.Helper()
		if len(seen) != 1 || !seen[fanout] {
			t.Fatalf("%s: kernels could fan out to %v goroutines, want %d only", when, seen, fanout)
		}
	}

	kernels.SetThreads(2)
	mustSee("two workers on two threads", phase(asIs, -1, 0), 1)
	mustSee("one worker (no Replicator) on two threads", phase(noReplicator, -1, 0), 2)
	kernels.SetThreads(4)
	mustSee("two workers (one lent model) on four threads", phase(asIs, -1, 1), 2)
	if got := kernels.Fanout(); got != 4 {
		t.Fatalf("Fanout() = %d after the phases, want the cap of 4", got)
	}

	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "injected fault") || !strings.Contains(msg, "DR target ") {
				t.Fatalf("re-raised panic = %q, want the fault and its target", msg)
			}
			named := false
			for _, dom := range ds.Domains {
				named = named || strings.Contains(msg, "DR target "+dom.Name+" ")
			}
			if !named {
				t.Fatalf("re-raised panic names no domain: %q", msg)
			}
		}()
		phase(asIs, 1, 0)
		t.Fatal("the phase swallowed a worker's panic")
	}()
	if got := kernels.Fanout(); got != 4 {
		t.Fatalf("Fanout() = %d after a worker panicked, want the cap of 4", got)
	}
}

// TestDRPhaseSpansAndHistogram: one dr.phase span per phase carrying the
// worker count, parent of one dr.target span per target, each tagged
// with the worker that ran it; one mamdr_train_dr_phase_seconds
// observation per phase.
func TestDRPhaseSpansAndHistogram(t *testing.T) {
	defer kernels.SetThreads(0)
	kernels.SetThreads(2)
	ds := testDataset(t, 0.8)
	tracer := trace.New(trace.Options{Sample: 1, FlightSize: -1})
	spans := trace.NewCollector(0)
	tracer.AddSink(spans)
	reg := telemetry.New()
	const epochs = 2
	framework.MustNew("mamdr").Fit(testModel(t, ds), ds, framework.Config{
		Epochs: epochs, BatchSize: 32, Seed: 9, Tracer: tracer,
		Telemetry: framework.NewTrainMetrics(reg, ds, nil),
	})

	attr := func(s *trace.Span, key string) any {
		for _, a := range s.Attrs() {
			if a.Key == key {
				return a.Value
			}
		}
		return nil
	}
	phases := map[uint64]int{} // dr.phase span id → dr.target children
	for _, s := range spans.Spans() {
		if s.Name == "dr.phase" {
			phases[s.ID] = 0
			if attr(s, "workers") != 2 {
				t.Fatalf("dr.phase workers = %v, want 2", attr(s, "workers"))
			}
		}
	}
	for _, s := range spans.Spans() {
		if s.Name != "dr.target" {
			continue
		}
		if _, ok := phases[s.ParentID]; !ok {
			t.Fatalf("dr.target %v has no dr.phase parent", attr(s, "target"))
		}
		phases[s.ParentID]++
		if w, ok := attr(s, "worker").(int); !ok || w < 0 || w > 1 {
			t.Fatalf("dr.target worker = %v, want 0 or 1", attr(s, "worker"))
		}
	}
	if len(phases) != epochs {
		t.Fatalf("%d dr.phase spans, want %d", len(phases), epochs)
	}
	for id, n := range phases {
		if n != ds.NumDomains() {
			t.Fatalf("dr.phase %x parents %d dr.target spans, want %d", id, n, ds.NumDomains())
		}
	}

	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("mamdr_train_dr_phase_seconds_count %d", epochs); !strings.Contains(out.String(), want) {
		t.Fatalf("exposition lacks %q", want)
	}
}
