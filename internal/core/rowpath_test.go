// Tests for touched-row training: the differential oracle (row path
// against the dense path, every framework, structure and inner
// optimizer), the -0.0 caveat, and the cost shape of one DR call.

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/synth"
	"mamdr/internal/telemetry"
)

// denseOnly hides a model's EmbeddingTables(): everything that reads
// models.EmbeddingTablesOf — the train step, DR's lookahead, Predict's
// binding — then treats every tensor densely, which is the trainer as it
// was before rows became an input of the step.
type denseOnly struct{ models.Model }

// fitSeries is what one Fit leaves behind: the predictor, the model's
// own parameters, and the telemetry event log with its timing fields
// removed (loss, grad-norm and conflict-cosine series remain).
type fitSeries struct {
	pred   framework.Predictor
	params paramvec.Vector
	events []string
}

func fitWith(t *testing.T, key string, m models.Model, ds *data.Dataset, inner string) fitSeries {
	t.Helper()
	var log bytes.Buffer
	tm := framework.NewTrainMetrics(telemetry.New(), ds, telemetry.NewEventLog(&log))
	pred := framework.MustNew(key).Fit(m, ds, framework.Config{
		Epochs: 2, BatchSize: 32, Seed: 9, InnerOpt: inner, LR: 0.05, SampleK: 2, Telemetry: tm,
	})
	out := fitSeries{pred: pred, params: paramvec.Snapshot(m.Parameters())}
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("event line is not JSON: %v", err)
		}
		for _, timing := range []string{"ts", "time", "seconds", "outer_seconds"} {
			delete(rec, timing)
		}
		canon, _ := json.Marshal(rec) // map keys are sorted
		out.events = append(out.events, string(canon))
	}
	return out
}

func mustMatchVectors(t *testing.T, what string, got, want paramvec.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("%s: segment %d differs between the row path and the dense path", what, i)
		}
	}
}

// TestRowPathMatchesDensePath is the differential oracle: Fit on a model
// equals Fit on the same model with its tables hidden, float for float —
// θ_S and every θ_i where the framework keeps them, the model's own
// parameters, every test-split score, and the loss / grad-norm series
// telemetry records — for every framework on the MLP and every structure
// under MAMDR, with each inner optimizer.
func TestRowPathMatchesDensePath(t *testing.T) {
	ds := testDataset(t, 0.8)
	type pairing struct{ framework, model string }
	var pairings []pairing
	for _, key := range framework.Keys() {
		pairings = append(pairings, pairing{key, "mlp"})
	}
	for _, name := range models.Names() {
		if name != "mlp" {
			pairings = append(pairings, pairing{"mamdr", name})
		}
	}
	for _, p := range pairings {
		for _, inner := range []string{"sgd", "adagrad", "adam"} {
			t.Run(fmt.Sprintf("%s/%s/%s", p.framework, p.model, inner), func(t *testing.T) {
				cfg := models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{8, 4}, Seed: 5}
				rows := fitWith(t, p.framework, models.MustNew(p.model, cfg), ds, inner)
				dense := fitWith(t, p.framework, denseOnly{models.MustNew(p.model, cfg)}, ds, inner)

				mustMatchVectors(t, "model parameters after Fit", rows.params, dense.params)
				if want, ok := dense.pred.(*State); ok {
					got := rows.pred.(*State)
					mustMatchVectors(t, "θ_S", got.Shared, want.Shared)
					for d := range want.Specific {
						mustMatchVectors(t, fmt.Sprintf("θ_%d", d), got.Specific[d], want.Specific[d])
					}
				}
				for d := range ds.Domains {
					b := ds.FullBatch(d, data.Test)
					if !bitsEqual(rows.pred.Predict(b), dense.pred.Predict(b)) {
						t.Fatalf("domain %d: test-split scores differ", d)
					}
				}
				if len(rows.events) != len(dense.events) {
					t.Fatalf("%d telemetry events on the row path, %d on the dense path", len(rows.events), len(dense.events))
				}
				for i := range dense.events {
					if rows.events[i] != dense.events[i] {
						t.Fatalf("telemetry event %d differs:\nrow path   %s\ndense path %s", i, rows.events[i], dense.events[i])
					}
				}
				if _, isState := dense.pred.(*State); isState && len(dense.events) != 2 {
					t.Fatalf("%d epoch events, want 2: the loss and grad-norm series were not compared", len(dense.events))
				}
			})
		}
	}
}

// sparseTailConfig is a dataset of 24-sample domains over user and item
// vocabularies far larger than any batch.
func sparseTailConfig(users, items int) synth.Config {
	cfg := synth.Config{Name: "rowpath-tail", Seed: 41, ConflictStrength: 0.8, NumUsers: users, NumItems: items}
	for d := 0; d < 6; d++ {
		cfg.Domains = append(cfg.Domains, synth.DomainSpec{Name: fmt.Sprintf("tail-%d", d), Samples: 24, CTRRatio: 0.3})
	}
	return cfg
}

// TestNegativeZeroSpecificSurvivesRowPath is the one visible difference
// between the two paths. A θ_i entry of -0.0 — reachable only by loading
// one; training from the zero vector never produces it — on a row no DR
// batch gathers stays -0.0 on the row path, where the dense path's
// -0.0 + γ·0 wrote +0.0. Nothing else differs, and no score can: the
// entry is only ever read as θ_S + θ_i.
func TestNegativeZeroSpecificSurvivesRowPath(t *testing.T) {
	ds := synth.Generate(sparseTailConfig(400, 200))
	const target = 0
	cfg := framework.Config{BatchSize: 32, Seed: 3, SampleK: 2, InnerOpt: "sgd", LR: 0.1}.WithDefaults()

	seen := map[int]bool{}
	for _, dom := range ds.Domains {
		for _, in := range dom.Train {
			seen[in.User] = true
		}
	}
	mcfg := models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{8}, Seed: 5}
	probe := models.MustNew("mlp", mcfg)
	userTable := -1
	for p, f := range models.EmbeddingTablesOf(probe) {
		if f == 0 && probe.Parameters()[p].Rows == 400 {
			userTable = p
		}
	}
	if userTable < 0 {
		t.Fatal("no 400-row table on field 0: the test needs the user-id table")
	}
	untouched := -1
	for u := 0; u < 400; u++ {
		if !seen[u] {
			untouched = u
			break
		}
	}
	if untouched < 0 {
		t.Fatal("every user id trains somewhere; the test needs a row no batch gathers")
	}
	entry := untouched * probe.Parameters()[userTable].Cols

	run := func(m models.Model) *State {
		st := randomState(m, ds.NumDomains(), 17)
		st.Specific[target][userTable][entry] = math.Copysign(0, -1)
		DomainRegularization(st, ds, target, cfg, rand.New(rand.NewSource(23)))
		return st
	}
	rows, dense := run(models.MustNew("mlp", mcfg)), run(denseOnly{models.MustNew("mlp", mcfg)})

	got, want := rows.Specific[target][userTable][entry], dense.Specific[target][userTable][entry]
	if got != 0 || !math.Signbit(got) {
		t.Fatalf("row path: the -0.0 entry became %v (signbit %v)", got, math.Signbit(got))
	}
	if want != 0 || math.Signbit(want) {
		t.Fatalf("dense path: the -0.0 entry became %v (signbit %v), expected +0.0", want, math.Signbit(want))
	}
	rows.Specific[target][userTable][entry] = want
	for d := range dense.Specific {
		mustMatchVectors(t, fmt.Sprintf("θ_%d apart from the -0.0 entry", d), rows.Specific[d], dense.Specific[d])
	}
	rows.Specific[target][userTable][entry] = got

	// The row itself, scored: same bits either way.
	b := ds.MakeBatch(target, []data.Interaction{{User: untouched, Item: 0}, {User: untouched, Item: 1}})
	if !bitsEqual(rows.Predict(b), dense.Predict(b)) {
		t.Fatal("the sign of a zero θ_i entry changed a score")
	}
}

// TestDRCostDoesNotGrowWithTables pins the cost shape by a count, not a
// timing: when both vocabularies — 95% of |θ| — are quadrupled, the bytes
// one DomainRegularization call allocates on a 24-sample target grow by
// less than a quarter of what the smallest table grew by, under both
// optimizers that take the row path. (The call's time still has one
// O(|θ|) term, the load of θ_S + θ_i; its allocations have none.)
//
// The bound is in bytes of |θ|, not a ratio of the two counts, and each
// count is the median of 21 calls: under -race sync.Pool drops a quarter
// of its Puts at random, so a call re-allocates 40 ± 13 KB of the
// kernels' buffer arena whatever the tables' size. One table-sized
// vector would add at least 96 KB.
func TestDRCostDoesNotGrowWithTables(t *testing.T) {
	const embDim, calls = 8, 21
	allocated := func(scale int, inner string) uint64 {
		ds := synth.Generate(sparseTailConfig(1000*scale, 500*scale))
		m := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: embDim, Hidden: []int{16, 8}, Seed: 5})
		st := &State{Model: m, Shared: paramvec.Snapshot(m.Parameters())}
		for range ds.Domains {
			st.AddDomain()
		}
		cfg := framework.Config{BatchSize: 64, Seed: 3, InnerOpt: inner, LR: 0.1}.WithDefaults()
		DomainRegularization(st, ds, 1, cfg, rand.New(rand.NewSource(1))) // warm the kernels' buffer arena
		counts := make([]uint64, calls)
		for rep := range counts {
			rng := rand.New(rand.NewSource(2))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			DomainRegularization(st, ds, 0, cfg, rng)
			runtime.ReadMemStats(&after)
			counts[rep] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(counts)
		return counts[calls/2]
	}
	itemTableGrowth := uint64(2000-500) * embDim * 8
	tableBytes := uint64(4000+2000) * embDim * 8
	for _, inner := range []string{"sgd", "adagrad"} {
		small, large := allocated(1, inner), allocated(4, inner)
		t.Logf("%s: one DR call allocates %d B at 1000×500 ids, %d B at 4000×2000", inner, small, large)
		if large > small+itemTableGrowth/4 {
			t.Fatalf("%s: allocation grew by %d B with the tables (%d B → %d B), and the smallest table by %d B; something of size |θ| is allocated per DR call",
				inner, large-small, small, large, itemTableGrowth)
		}
		if large > tableBytes {
			t.Fatalf("%s: one DR call allocates %d B, more than the tables themselves (%d B)", inner, large, tableBytes)
		}
	}
}
