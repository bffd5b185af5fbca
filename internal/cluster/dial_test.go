package cluster

import (
	"context"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mamdr/internal/autograd"
	"mamdr/internal/ps"
)

func dialTestPlan() ([]*autograd.Tensor, ps.Plan) {
	params := []*autograd.Tensor{autograd.ParamZeros(60, 4), autograd.ParamZeros(6, 6)}
	for t, p := range params {
		for i := range p.Data {
			p.Data[i] = float64(t*1000 + i)
		}
	}
	plan := ps.NewPlan(ps.LayoutOf(params, map[int]int{0: 0}), 2, 7)
	return params, plan
}

// TestTrySnapshotDegradesInsteadOfPanicking: Snapshot panics when a
// whole shard is gone (training must abort), but the serving path calls
// TrySnapshot and gets an error it can degrade on — while against a
// healthy cluster TrySnapshot returns exactly what Snapshot would.
func TestTrySnapshotDegradesInsteadOfPanicking(t *testing.T) {
	params, plan := dialTestPlan()
	servers := Shards(params, plan, ShardOptions{})

	healthy, err := New(plan, [][]ps.Store{{servers[0][0]}, {servers[1][0]}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := healthy.Snapshot()
	got, err := healthy.TrySnapshot()
	if err != nil {
		t.Fatalf("TrySnapshot on a healthy cluster: %v", err)
	}
	requireSameVector(t, "TrySnapshot vs Snapshot", want, got)

	broken, err := New(plan, [][]ps.Store{
		{&killAfter{base: servers[0][0], remaining: 0}},
		{servers[1][0]},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := broken.TrySnapshot()
	if err == nil || v != nil {
		t.Fatalf("TrySnapshot with a dead shard: v=%v err=%v, want error", v, err)
	}
	if !strings.Contains(err.Error(), "failed on every replica") {
		t.Fatalf("error does not name the exhausted shard: %v", err)
	}
}

// TestDialSnapshotRetriesUntilClusterUp is satellite-1's property: a
// serve process racing its cluster at startup must not die on the first
// connection refusal. The shard listeners only come up during the first
// backoff sleep (injected Sleep hook), so attempt 1 is guaranteed to
// fail and a later attempt is guaranteed to succeed — deterministically,
// no wall-clock sleeps.
func TestDialSnapshotRetriesUntilClusterUp(t *testing.T) {
	params, plan := dialTestPlan()
	servers := Shards(params, plan, ShardOptions{})

	// Reserve loopback ports, then free them: the dial target exists but
	// refuses connections until the backoff hook starts the servers.
	addrs := make([][]string, len(servers))
	for sh := range servers {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[sh] = []string{lis.Addr().String()}
		lis.Close()
	}

	var started atomic.Bool
	var closeAll func()
	bo := ps.Backoff{
		Attempts: 4, Base: time.Millisecond, Max: time.Millisecond, Seed: 1,
		Sleep: func(ctx context.Context, d time.Duration) error {
			if started.CompareAndSwap(false, true) {
				for sh, srvs := range servers {
					lis, err := net.Listen("tcp", addrs[sh][0])
					if err != nil {
						t.Errorf("rebind %s: %v", addrs[sh][0], err)
						return err
					}
					prev := closeAll
					closeAll = func() {
						lis.Close()
						if prev != nil {
							prev()
						}
					}
					go ps.Serve(srvs[0], lis)
				}
			}
			return nil
		},
	}

	router, snap, err := DialSnapshot(context.Background(), plan, addrs, nil, Options{}, bo)
	if err != nil {
		t.Fatalf("DialSnapshot: %v", err)
	}
	defer router.Close()
	defer closeAll()
	if !started.Load() {
		t.Fatal("first dial attempt succeeded against closed listeners")
	}

	local, err := New(plan, [][]ps.Store{{servers[0][0]}, {servers[1][0]}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameVector(t, "retried snapshot vs direct", local.Snapshot(), snap)

	// The dialed cluster also answers probes, side-effect-free.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := router.TryPing(ctx); err != nil {
		t.Fatalf("TryPing on a live cluster: %v", err)
	}
}

// TestDialSnapshotExhaustsBudget: a cluster that never comes up fails
// after exactly the configured attempt budget, with the last dial error
// preserved — not a hang, not a panic.
func TestDialSnapshotExhaustsBudget(t *testing.T) {
	_, plan := dialTestPlan()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := lis.Addr().String()
	lis.Close()

	sleeps := 0
	bo := ps.Backoff{
		Attempts: 3, Base: time.Millisecond, Max: time.Millisecond, Seed: 1,
		Sleep: func(ctx context.Context, d time.Duration) error { sleeps++; return nil },
	}
	_, _, err = DialSnapshot(context.Background(), plan, [][]string{{dead}, {dead}}, nil, Options{}, bo)
	if err == nil {
		t.Fatal("DialSnapshot succeeded against a dead address")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error does not report the attempt budget: %v", err)
	}
	if sleeps != 2 {
		t.Fatalf("slept %d times between 3 attempts, want 2", sleeps)
	}
}

// TestParseAddrs pins the one address grammar of -ps-addrs and -ps-serve:
// ',' between shards, '|' between the replicas of a shard, spaces trimmed,
// empty groups dropped.
func TestParseAddrs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want [][]string
	}{
		{"", nil},
		{" , ,| ", nil},
		{"a:1", [][]string{{"a:1"}}},
		{"a:1,b:2", [][]string{{"a:1"}, {"b:2"}}},
		{" a:1 , b:2 ", [][]string{{"a:1"}, {"b:2"}}},
		{"a0|a1,b0|b1", [][]string{{"a0", "a1"}, {"b0", "b1"}}},
		{"a0 | a1 ,, b0|", [][]string{{"a0", "a1"}, {"b0"}}},
		{"|a1,b0", [][]string{{"a1"}, {"b0"}}},
	} {
		if got := ParseAddrs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseAddrs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
