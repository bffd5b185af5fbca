package ps

import (
	"context"
	"math/rand"
	"net"
	"strings"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/paramvec"
	"mamdr/internal/synth"
)

func testDataset(t testing.TB) *data.Dataset {
	t.Helper()
	return synth.Generate(synth.Config{
		Name: "ps-test", Seed: 51, ConflictStrength: 0.8,
		Domains: []synth.DomainSpec{
			{Name: "a", Samples: 500, CTRRatio: 0.3},
			{Name: "b", Samples: 400, CTRRatio: 0.4},
			{Name: "c", Samples: 300, CTRRatio: 0.25},
			{Name: "d", Samples: 200, CTRRatio: 0.35},
		},
	})
}

func replicaFactory(ds *data.Dataset) func() models.Model {
	return dropoutFactory(ds, 0)
}

// dropoutFactory is replicaFactory with dropout between the hidden
// layers: the structure whose masks an epoch must seed to be replayable.
func dropoutFactory(ds *data.Dataset, dropout float64) func() models.Model {
	return func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Dropout: dropout, Seed: 5})
	}
}

func TestLayoutOf(t *testing.T) {
	params := []*autograd.Tensor{
		autograd.ParamZeros(500, 4), // embedding table for field 0
		autograd.ParamZeros(96, 8),  // wide dense matrix — must stay dense
		autograd.ParamZeros(1, 8),   // dense
	}
	l := LayoutOf(params, map[int]int{0: 0})
	if !l.Embedding[0] || l.Embedding[1] || l.Embedding[2] {
		t.Fatalf("embedding flags = %v", l.Embedding)
	}
	if l.Field[0] != 0 || l.Field[1] != -1 || l.Field[2] != -1 {
		t.Fatalf("field mapping = %v", l.Field)
	}
	if l.NumTensors() != 3 || l.Rows[0] != 500 || l.Cols[0] != 4 {
		t.Fatal("layout shapes wrong")
	}
	if err := l.Validate(6); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
}

func TestLayoutValidateCatchesUnreachableTensors(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(100, 4)}
	l := LayoutOf(params, map[int]int{0: 0})

	// Embedding without a field is reachable by neither sync path.
	broken := l
	broken.Field = []int{-1}
	if err := broken.Validate(-1); err == nil {
		t.Fatal("embedding tensor without a field passed validation")
	}

	// A field beyond the schema cannot be resolved by workers.
	if err := l.Validate(0); err == nil {
		t.Fatal("out-of-schema field passed validation")
	}

	// Dense tensors must not name a field.
	dbl := LayoutOf(params, nil)
	dbl.Field = []int{2}
	if err := dbl.Validate(-1); err == nil {
		t.Fatal("dense tensor with a field passed validation")
	}
}

// TestLayoutValidateCatchesMalformedLayouts covers the structural error
// paths: slices of mismatched length (a hand-built layout that skipped a
// field) and degenerate tensor shapes. Both would otherwise surface as
// index panics deep inside sync or partitioning code.
func TestLayoutValidateCatchesMalformedLayouts(t *testing.T) {
	params := []*autograd.Tensor{
		autograd.ParamZeros(100, 4),
		autograd.ParamZeros(8, 8),
	}
	good := LayoutOf(params, map[int]int{0: 0})
	if err := good.Validate(-1); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}

	short := good
	short.Field = good.Field[:1]
	if err := short.Validate(-1); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("short Field slice not rejected as misaligned: %v", err)
	}

	short = good
	short.Embedding = append(append([]bool(nil), good.Embedding...), true)
	if err := short.Validate(-1); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("long Embedding slice not rejected as misaligned: %v", err)
	}

	short = good
	short.Cols = good.Cols[:1]
	if err := short.Validate(-1); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("short Cols slice not rejected as misaligned: %v", err)
	}

	for _, shape := range []struct{ rows, cols int }{{0, 4}, {4, 0}, {-1, 4}} {
		degenerate := Layout{
			Rows: []int{shape.rows}, Cols: []int{shape.cols},
			Embedding: []bool{false}, Field: []int{-1},
		}
		if err := degenerate.Validate(-1); err == nil || !strings.Contains(err.Error(), "degenerate") {
			t.Fatalf("%dx%d tensor not rejected as degenerate: %v", shape.rows, shape.cols, err)
		}
	}
}

func TestServerPullDenseExcludesEmbeddings(t *testing.T) {
	params := []*autograd.Tensor{
		autograd.ParamZeros(500, 4),
		autograd.Param(2, 2, []float64{1, 2, 3, 4}),
	}
	s := NewServer(params, map[int]int{0: 0}, "sgd", 1)
	dense := s.PullDense(context.Background())
	if _, has := dense[0]; has {
		t.Fatal("embedding tensor returned by PullDense")
	}
	if dense[1][3] != 4 {
		t.Fatal("dense values wrong")
	}
}

func TestServerPullRowsLatestValues(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(100, 2)}
	s := NewServer(params, map[int]int{0: 0}, "sgd", 1)
	s.PushDelta(context.Background(), Delta{
		Rows:      map[int][]int{0: {7}},
		RowDeltas: map[int][][]float64{0: {{1.5, -2}}},
	})
	rows := s.PullRows(context.Background(), 0, []int{7, 8})
	if rows[0][0] != 1.5 || rows[0][1] != -2 {
		t.Fatalf("row 7 = %v, want [1.5 -2]", rows[0])
	}
	if rows[1][0] != 0 {
		t.Fatal("row 8 should be untouched")
	}
}

func TestServerPullRowsOnDensePanics(t *testing.T) {
	s := NewServer([]*autograd.Tensor{autograd.ParamZeros(2, 2)}, nil, "sgd", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.PullRows(context.Background(), 0, []int{0})
}

func TestServerOuterUpdateAppliesBeta(t *testing.T) {
	params := []*autograd.Tensor{autograd.Param(1, 2, []float64{0, 0})}
	s := NewServer(params, nil, "sgd", 0.5)
	s.PushDelta(context.Background(), Delta{Dense: map[int][]float64{0: {2, -4}}})
	snap := s.Snapshot()
	// Eq. 3: θ += β * delta = 0.5 * [2, -4].
	if snap[0][0] != 1 || snap[0][1] != -2 {
		t.Fatalf("snapshot = %v, want [1 -2]", snap[0])
	}
}

func TestServerAdagradStatePersistsAcrossPushes(t *testing.T) {
	params := []*autograd.Tensor{autograd.Param(1, 1, []float64{0})}
	s := NewServer(params, nil, "adagrad", 1)
	s.PushDelta(context.Background(), Delta{Dense: map[int][]float64{0: {1}}})
	v1 := s.Snapshot()[0][0]
	s.PushDelta(context.Background(), Delta{Dense: map[int][]float64{0: {1}}})
	v2 := s.Snapshot()[0][0] - v1
	if v2 >= v1 {
		t.Fatalf("second adagrad step (%g) should be smaller than first (%g)", v2, v1)
	}
}

func TestCountersTally(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(100, 2), autograd.ParamZeros(1, 3)}
	s := NewServer(params, map[int]int{0: 0}, "sgd", 1)
	s.PullDense(context.Background())
	s.PullRows(context.Background(), 0, []int{1, 2, 3})
	s.PushDelta(context.Background(), Delta{Dense: map[int][]float64{1: {0, 0, 0}}})
	c := s.Counters()
	if c.DensePulls != 1 || c.RowPulls != 3 || c.DensePushes != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.FloatsMoved != 3+6+3 {
		t.Fatalf("floats moved = %d, want 12", c.FloatsMoved)
	}
}

func TestDensePushCounterIgnoresRowOnlyAndEmptyPushes(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(100, 2), autograd.ParamZeros(1, 3)}
	s := NewServer(params, map[int]int{0: 0}, "sgd", 1)

	// A push carrying only embedding rows must not count as a dense push.
	s.PushDelta(context.Background(), Delta{
		Rows:      map[int][]int{0: {5}},
		RowDeltas: map[int][][]float64{0: {{1, 1}}},
	})
	// Neither must an empty push.
	s.PushDelta(context.Background(), Delta{})
	if c := s.Counters(); c.DensePushes != 0 {
		t.Fatalf("row-only/empty pushes counted as dense: %+v", c)
	}

	s.PushDelta(context.Background(), Delta{Dense: map[int][]float64{1: {0, 0, 0}}})
	if c := s.Counters(); c.DensePushes != 1 || c.RowPushes != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDistributedTrainingLearns(t *testing.T) {
	ds := testDataset(t)
	res := Train(replicaFactory(ds), ds, Options{
		Workers: 2, Epochs: 20, Seed: 9, CacheEnabled: true,
	})
	auc := framework.MeanAUC(res.State, ds, data.Test)
	if auc < 0.55 {
		t.Fatalf("distributed DN test AUC = %.4f, want > 0.55", auc)
	}
	if res.Counters.DensePushes == 0 || res.Counters.RowPulls == 0 {
		t.Fatalf("no PS traffic recorded: %+v", res.Counters)
	}
}

func TestDistributedWithDRPopulatesSpecifics(t *testing.T) {
	ds := testDataset(t)
	res := Train(replicaFactory(ds), ds, Options{
		Workers: 2, Epochs: 3, Seed: 9, CacheEnabled: true, UseDR: true,
	})
	if len(res.State.Specific) != ds.NumDomains() {
		t.Fatalf("specifics = %d, want %d", len(res.State.Specific), ds.NumDomains())
	}
	var moved int
	for _, v := range res.State.Specific {
		var norm float64
		for i := range v {
			for j := range v[i] {
				norm += v[i][j] * v[i][j]
			}
		}
		if norm > 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("DR phase left all specific parameters at zero")
	}
}

func TestCacheReducesSyncOverhead(t *testing.T) {
	ds := testDataset(t)
	opts := Options{Workers: 2, Epochs: 2, Seed: 9}

	optsOn := opts
	optsOn.CacheEnabled = true
	withCache := Train(replicaFactory(ds), ds, optsOn)

	optsOff := opts
	optsOff.CacheEnabled = false
	withoutCache := Train(replicaFactory(ds), ds, optsOff)

	on := withCache.Counters.FloatsMoved
	off := withoutCache.Counters.FloatsMoved
	t.Logf("floats moved: cache=%d naive=%d (%.1fx)", on, off, float64(off)/float64(on))
	if on >= off {
		t.Fatalf("embedding cache did not reduce traffic: %d vs %d", on, off)
	}
}

func TestWorkerCountCappedByDomains(t *testing.T) {
	ds := testDataset(t)
	res := Train(replicaFactory(ds), ds, Options{Workers: 32, Epochs: 1, Seed: 9, CacheEnabled: true})
	if res.State == nil {
		t.Fatal("training failed with more workers than domains")
	}
}

func TestConcurrentPushesAreSafe(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(200, 4), autograd.ParamZeros(4, 4)}
	s := NewServer(params, map[int]int{0: 0}, "sgd", 0.1)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				s.PullDense(context.Background())
				s.PullRows(context.Background(), 0, []int{rng.Intn(200)})
				s.PushDelta(context.Background(), Delta{
					Dense:     map[int][]float64{1: make([]float64, 16)},
					Rows:      map[int][]int{0: {rng.Intn(200)}},
					RowDeltas: map[int][][]float64{0: {{0.1, 0.1, 0.1, 0.1}}},
				})
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	c := s.Counters()
	if c.DensePushes != 400 || c.RowPushes != 400 {
		t.Fatalf("lost pushes: %+v", c)
	}
}

func TestRPCTransportEndToEnd(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)
	serving := factory()
	// Adagrad's first steps move each coordinate by the full learning
	// rate regardless of delta magnitude, so the outer rate stays at the
	// low end of the paper's industrial range [0.1, 1].
	server := NewServer(serving.Parameters(), models.EmbeddingTablesOf(serving), "adagrad", 0.1)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(server, lis)

	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if client.Layout().NumTensors() != len(serving.Parameters()) {
		t.Fatal("layout mismatch over RPC")
	}

	res := TrainWithStore(factory, serving, client, client, ds, Options{
		Workers: 2, Epochs: 10, Seed: 9, CacheEnabled: true,
	})
	auc := framework.MeanAUC(res.State, ds, data.Test)
	if auc < 0.52 {
		t.Fatalf("RPC-trained AUC = %.4f, want > 0.52", auc)
	}
	if res.Counters.DensePushes == 0 {
		t.Fatal("no pushes recorded through RPC")
	}
}

func TestRPCDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

// TestWideMLPSyncsAllTensors is the regression test for the silent
// desync of large dense tensors: an MLP whose first hidden layer has
// numFields x embDim >= 64 input rows (here 6 x 16 = 96) used to be
// classified as an embedding table by the old row-count heuristic,
// while the worker had no row mapping for it — so the layer was never
// pulled from nor pushed to the PS, and the serving snapshot kept its
// initial values. With the explicit embedding mask every managed tensor
// must move during training and distributed DN must track
// single-process DN within tolerance.
func TestWideMLPSyncsAllTensors(t *testing.T) {
	ds := testDataset(t)
	factory := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 16, Hidden: []int{32, 16}, Seed: 5})
	}
	probe := factory()
	init := paramvec.Snapshot(probe.Parameters())
	layout := LayoutOf(probe.Parameters(), models.EmbeddingTablesOf(probe))

	res := Train(factory, ds, Options{Workers: 2, Epochs: 20, Seed: 9, CacheEnabled: true})

	// Every managed tensor — dense or embedding — must have moved away
	// from initialization in the PS snapshot.
	for i := range init {
		var diff float64
		for j := range init[i] {
			d := res.State.Shared[i][j] - init[i][j]
			diff += d * d
		}
		if diff == 0 {
			t.Errorf("tensor %d (%dx%d, embedding=%v) never synchronized: snapshot equals initialization",
				i, layout.Rows[i], layout.Cols[i], layout.Embedding[i])
		}
	}

	// Distributed DN must be in the same quality regime as
	// single-process DN; with the first MLP layer desynced it collapses
	// toward chance.
	single := framework.MustNew("dn").Fit(factory(), ds, framework.Config{
		Epochs: 20, BatchSize: 64, Seed: 9,
	})
	singleAUC := framework.MeanAUC(single, ds, data.Test)
	distAUC := framework.MeanAUC(res.State, ds, data.Test)
	t.Logf("wide-MLP AUC: distributed %.4f vs single-process %.4f", distAUC, singleAUC)
	if distAUC < singleAUC-0.05 {
		t.Fatalf("distributed DN diverged from single-process DN: %.4f vs %.4f", distAUC, singleAUC)
	}
}

// TestWorkerLayoutMismatchPanics ensures a store whose layout does not
// align with the replica is rejected loudly instead of desyncing.
func TestWorkerLayoutMismatchPanics(t *testing.T) {
	ds := testDataset(t)
	serving := replicaFactory(ds)()
	store := NewServer(serving.Parameters(), models.EmbeddingTablesOf(serving), "sgd", 0.5)

	// A structurally different replica (wider hidden layers).
	other := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{24, 8}, Seed: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on layout/replica mismatch")
		}
	}()
	NewWorker(0, other, ds, []int{0}, store, true)
}
