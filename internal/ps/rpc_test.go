package ps

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"sync"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/paramvec"
)

// rpcTestService serves a 4×2 embedding table (tensor 0) and a 2×3
// dense tensor (tensor 1) through the RPC adapter, without a socket.
func rpcTestService() (*RPCService, *Server) {
	params := []*autograd.Tensor{
		autograd.Param(4, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8}),
		autograd.Param(2, 3, []float64{1, 2, 3, 4, 5, 6}),
	}
	srv := NewServer(params, map[int]int{0: 0}, "sgd", 0.5)
	svc := &RPCService{install: func(a InstallArgs) *Server {
		params := make([]*autograd.Tensor, len(a.Values))
		for t, v := range a.Values {
			params[t] = autograd.Param(a.Layout.Rows[t], a.Layout.Cols[t], v)
		}
		return NewServer(params, a.Layout.Tables(), a.OuterOpt, a.OuterLR)
	}}
	svc.server.Store(srv)
	return svc, srv
}

// rpcArgsCorpus holds well-formed calls and one of every malformed
// shape the service must refuse.
var rpcArgsCorpus = []any{
	PullRowsArgs{Tensor: 0, Rows: []int{0, 3}},
	PullRowsArgs{Tensor: 0, Rows: []int{99}},
	PullRowsArgs{Tensor: 0, Rows: []int{-1}},
	PullRowsArgs{Tensor: 1, Rows: []int{0}},
	PullRowsArgs{Tensor: 7},
	PushDeltaArgs{Delta: Delta{
		Dense:     map[int][]float64{1: {1, 1, 1, 1, 1, 1}},
		Rows:      map[int][]int{0: {1, 2}},
		RowDeltas: map[int][][]float64{0: {{1, 1}, {2, 2}}},
		WorkerID:  1, Seq: 1,
	}},
	PushDeltaArgs{Delta: Delta{Dense: map[int][]float64{1: {1, 1, 1, 1, 1, 1, 1}}, WorkerID: 1, Seq: 1}},
	PushDeltaArgs{Delta: Delta{Dense: map[int][]float64{1: {1}}, WorkerID: 1, Seq: 1}},
	PushDeltaArgs{Delta: Delta{Dense: map[int][]float64{0: make([]float64, 8)}, WorkerID: 1, Seq: 1}},
	PushDeltaArgs{Delta: Delta{Dense: map[int][]float64{-3: {1}}, WorkerID: 1, Seq: 1}},
	PushDeltaArgs{Delta: Delta{Rows: map[int][]int{0: {4}}, RowDeltas: map[int][][]float64{0: {{1, 1}}}, WorkerID: 1, Seq: 1}},
	PushDeltaArgs{Delta: Delta{Rows: map[int][]int{0: {1, 2}}, RowDeltas: map[int][][]float64{0: {{1, 1}}}, WorkerID: 1, Seq: 1}},
	PushDeltaArgs{Delta: Delta{Rows: map[int][]int{0: {1}}, RowDeltas: map[int][][]float64{0: {{1, 1, 1}}}, WorkerID: 1, Seq: 1}},
	PushDeltaArgs{Delta: Delta{Rows: map[int][]int{1: {0}}, RowDeltas: map[int][][]float64{1: {{1, 1, 1}}}, WorkerID: 1, Seq: 1}},
	// A valid dense half before a bad row half: nothing may apply.
	PushDeltaArgs{Delta: Delta{
		Dense:     map[int][]float64{1: {1, 1, 1, 1, 1, 1}},
		Rows:      map[int][]int{0: {9}},
		RowDeltas: map[int][][]float64{0: {{1, 1}}},
		WorkerID:  2, Seq: 5,
	}},
}

// TestRPCRejectsMalformedArgs: a call whose arguments do not fit the
// layout gets an error instead of panicking the host, and a refused
// push leaves the parameters and the worker's sequence where they were.
func TestRPCRejectsMalformedArgs(t *testing.T) {
	svc, srv := rpcTestService()
	var rows [][]float64
	if err := svc.PullRows(PullRowsArgs{Tensor: 0, Rows: []int{99}}, &rows); err == nil {
		t.Fatal("pull of row 99 from a 4-row table succeeded")
	}
	before := srv.Snapshot()
	bad := Delta{
		Rows:      map[int][]int{0: {1}},
		RowDeltas: map[int][][]float64{0: {{1, 1, 1}}},
		WorkerID:  3, Seq: 1,
	}
	if err := svc.PushDelta(PushDeltaArgs{Delta: bad}, &Nothing{}); err == nil {
		t.Fatal("push of a 3-wide row delta into a 2-wide table succeeded")
	}
	if !sameBits(before, srv.Snapshot()) {
		t.Fatal("refused push changed parameters")
	}
	good := Delta{
		Rows:      map[int][]int{0: {1}},
		RowDeltas: map[int][][]float64{0: {{2, 2}}},
		WorkerID:  3, Seq: 1,
	}
	if err := svc.PushDelta(PushDeltaArgs{Delta: good}, &Nothing{}); err != nil {
		t.Fatal(err)
	}
	if err := svc.PullRows(PullRowsArgs{Tensor: 0, Rows: []int{1}}, &rows); err != nil {
		t.Fatal(err)
	}
	// Seq 1 still applies after the refusal: row 1 = [3 4] + 0.5·[2 2].
	if rows[0][0] != 4 || rows[0][1] != 5 {
		t.Fatalf("row 1 = %v, want [4 5]", rows[0])
	}
}

// FuzzPSRPCArgs feeds gob-encoded PullRows and PushDelta arguments
// through the service methods: each call returns an error or a reply,
// never panics, and a refused push changes neither the parameters nor
// the pushing worker's sequence.
func FuzzPSRPCArgs(f *testing.F) {
	for _, args := range rpcArgsCorpus {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(args); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		svc, srv := rpcTestService()
		var pull PullRowsArgs
		if gob.NewDecoder(bytes.NewReader(raw)).Decode(&pull) == nil {
			var rows [][]float64
			if err := svc.PullRows(pull, &rows); err == nil && len(rows) != len(pull.Rows) {
				t.Fatalf("pulled %d rows for %d requested", len(rows), len(pull.Rows))
			}
		}
		var push PushDeltaArgs
		if gob.NewDecoder(bytes.NewReader(raw)).Decode(&push) == nil {
			before, seq := srv.Snapshot(), srv.lastSeq[push.Delta.WorkerID]
			if err := svc.PushDelta(push, &Nothing{}); err != nil {
				if !sameBits(before, srv.Snapshot()) {
					t.Fatalf("refused push (%v) changed parameters", err)
				}
				if got := srv.lastSeq[push.Delta.WorkerID]; got != seq {
					t.Fatalf("refused push (%v) moved worker %d's sequence %d → %d", err, push.Delta.WorkerID, seq, got)
				}
			}
		}
	})
}

// TestInstallDuringCalls: a host slot's server is replaced while other
// connections pull and push; every call serves one whole server, the old
// or the new (run with -race).
func TestInstallDuringCalls(t *testing.T) {
	svc, _ := rpcTestService()
	a := InstallArgs{
		Layout: Layout{Rows: []int{4, 2}, Cols: []int{2, 3}, Field: []int{0, -1}},
		Values: [][]float64{make([]float64, 8), make([]float64, 6)}, Shards: 1,
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var rows [][]float64
				if g == 0 {
					if err := svc.Install(a, &Nothing{}); err != nil {
						t.Error(err)
					}
				} else if err := svc.PullRows(PullRowsArgs{Tensor: 0, Rows: []int{3}}, &rows); err != nil {
					t.Error(err)
				} else if err := svc.PushDelta(PushDeltaArgs{Delta: Delta{Dense: map[int][]float64{1: make([]float64, 6)}}}, &Nothing{}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzInstallArgs feeds gob-encoded install arguments to a host slot:
// an install is refused with an error, leaving the slot's server in
// place, or installs a server with the layout and values it carried.
func FuzzInstallArgs(f *testing.F) {
	good := InstallArgs{
		Layout: Layout{Rows: []int{4, 2}, Cols: []int{2, 3}, Field: []int{0, -1}},
		Values: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 5, 6}}, Shards: 1,
	}
	for _, corrupt := range []func(a *InstallArgs){
		func(*InstallArgs) {},
		func(a *InstallArgs) { a.Layout.Rows = []int{0, 2} },
		func(a *InstallArgs) { a.Values = a.Values[:1] },
		func(a *InstallArgs) { a.Values = [][]float64{a.Values[0], {1}} },
		func(a *InstallArgs) { a.OuterOpt = "rmsprop" },
		func(a *InstallArgs) { a.Layout.Rows[0], a.Layout.Cols[0], a.Values[0] = 1<<32, 1<<32, nil },
		func(a *InstallArgs) { a.Checkpoints = true },
	} {
		a := good
		a.Layout.Rows, a.Layout.Cols, a.Values = slices.Clone(a.Layout.Rows), slices.Clone(a.Layout.Cols), slices.Clone(a.Values)
		corrupt(&a)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(a); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var a InstallArgs
		if gob.NewDecoder(bytes.NewReader(raw)).Decode(&a) != nil {
			return
		}
		svc, srv := rpcTestService()
		if err := svc.Install(a, &Nothing{}); err != nil {
			if svc.server.Load() != srv {
				t.Fatalf("refused install (%v) replaced the server", err)
			}
			return
		}
		got := svc.server.Load()
		if got.Layout().NumTensors() != len(a.Values) || !sameBits(got.Snapshot(), a.Values) {
			t.Fatalf("installed %v from the values %v", got.Snapshot(), a.Values)
		}
		for tensor := range got.Layout().Tables() {
			var rows [][]float64
			if err := svc.PullRows(PullRowsArgs{Tensor: tensor, Rows: []int{a.Layout.Rows[tensor] - 1}}, &rows); err != nil {
				t.Fatalf("pull of tensor %d's last row: %v", tensor, err)
			}
		}
	})
}

func sameBits(a, b paramvec.Vector) bool {
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
