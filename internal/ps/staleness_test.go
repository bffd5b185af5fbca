package ps

import (
	"context"
	"sync"
	"testing"

	"mamdr/internal/data"
	"mamdr/internal/framework"
	"mamdr/internal/models"
)

// staleStore wraps a Server and serves parameter reads from a delayed
// snapshot, injecting the bounded staleness a real multi-machine PS
// exhibits under asynchronous pushes. Pushes go through immediately;
// pulls see state as of `lag` pushes ago.
type staleStore struct {
	inner *Server
	lag   int

	mu      sync.Mutex
	history []snapshotPair
}

type snapshotPair struct {
	dense map[int][]float64
	rows  map[int]map[int][]float64
}

func newStaleStore(inner *Server, lag int) *staleStore {
	s := &staleStore{inner: inner, lag: lag}
	s.record()
	return s
}

func (s *staleStore) record() {
	pair := snapshotPair{dense: s.inner.PullDense(context.Background()), rows: map[int]map[int][]float64{}}
	layout := s.inner.Layout()
	for t := 0; t < layout.NumTensors(); t++ {
		if !layout.IsTable(t) {
			continue
		}
		all := make([]int, layout.Rows[t])
		for r := range all {
			all[r] = r
		}
		vals := s.inner.PullRows(context.Background(), t, all)
		pair.rows[t] = map[int][]float64{}
		for r, v := range vals {
			pair.rows[t][r] = v
		}
	}
	s.mu.Lock()
	s.history = append(s.history, pair)
	if len(s.history) > s.lag+1 {
		s.history = s.history[len(s.history)-s.lag-1:]
	}
	s.mu.Unlock()
}

func (s *staleStore) stale() snapshotPair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.history[0]
}

// Layout implements Store.
func (s *staleStore) Layout() Layout { return s.inner.Layout() }

// PullDense implements Store, serving lagged values.
func (s *staleStore) PullDense(_ context.Context) map[int][]float64 {
	src := s.stale().dense
	out := map[int][]float64{}
	for t, v := range src {
		out[t] = append([]float64(nil), v...)
	}
	return out
}

// PullRows implements Store, serving lagged values.
func (s *staleStore) PullRows(_ context.Context, tensor int, rows []int) [][]float64 {
	src := s.stale().rows[tensor]
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), src[r]...)
	}
	return out
}

// PushDelta implements Store: applied immediately, then the visible
// snapshot advances by one.
func (s *staleStore) PushDelta(ctx context.Context, d Delta) {
	s.inner.PushDelta(ctx, d)
	s.record()
}

// TestTrainingTolleratesStaleReads verifies DN training still learns
// when every parameter read is several pushes stale — the asynchronous
// regime the embedding cache's query-latest-on-miss design targets.
func TestTrainingToleratesStaleReads(t *testing.T) {
	ds := testDataset(t)
	factory := replicaFactory(ds)
	serving := factory()
	server := NewServer(serving.Parameters(), models.EmbeddingTablesOf(serving), "sgd", 0.5)
	store := newStaleStore(server, 3)

	res := TrainWithStore(factory, serving, store, server, ds, Options{
		Workers: 2, Epochs: 20, Seed: 9, CacheEnabled: true,
	})
	auc := framework.MeanAUC(res.State, ds, data.Test)
	if auc < 0.53 {
		t.Fatalf("stale-read training collapsed: AUC %.4f", auc)
	}
}

// TestStaleStoreActuallyLags is a meta-test: the wrapper must serve
// values older than the server's current state.
func TestStaleStoreActuallyLags(t *testing.T) {
	ds := testDataset(t)
	serving := replicaFactory(ds)()
	server := NewServer(serving.Parameters(), models.EmbeddingTablesOf(serving), "sgd", 1)
	store := newStaleStore(server, 2)

	// Find a dense tensor index.
	var denseT = -1
	layout := server.Layout()
	for i := 0; i < layout.NumTensors(); i++ {
		if !layout.IsTable(i) {
			denseT = i
			break
		}
	}
	if denseT < 0 {
		t.Fatal("no dense tensor")
	}
	size := layout.Rows[denseT] * layout.Cols[denseT]
	delta := make([]float64, size)
	for i := range delta {
		delta[i] = 1
	}
	store.PushDelta(context.Background(), Delta{Dense: map[int][]float64{denseT: delta}})

	fresh := server.PullDense(context.Background())[denseT][0]
	lagged := store.PullDense(context.Background())[denseT][0]
	if fresh == lagged {
		t.Fatalf("stale store not lagging: fresh=%g lagged=%g", fresh, lagged)
	}
}
