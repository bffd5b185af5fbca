package ps

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"mamdr/internal/autograd"
	"mamdr/internal/faultinject"
)

func TestBackoffDelayDeterministicUnderSeed(t *testing.T) {
	a := &Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Seed: 42}
	b := &Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Seed: 42}
	c := &Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Seed: 43}
	var differs bool
	for attempt := 1; attempt <= 8; attempt++ {
		da, db, dc := a.Delay(attempt), b.Delay(attempt), c.Delay(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
		if da != dc {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestBackoffDelayBoundsAndCap(t *testing.T) {
	b := &Backoff{Base: 8 * time.Millisecond, Max: 32 * time.Millisecond, Seed: 1}
	// Pre-jitter sleeps: 8ms, 16ms, 32ms, 32ms (capped), ...
	want := []time.Duration{8, 16, 32, 32, 32}
	for i, pre := range want {
		pre *= time.Millisecond
		d := b.Delay(i + 1)
		if d < pre/2 || d >= pre {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i+1, d, pre/2, pre)
		}
	}
	// A huge attempt index must not overflow into a negative shift.
	if d := b.Delay(500); d < 16*time.Millisecond || d >= 32*time.Millisecond {
		t.Fatalf("attempt 500: delay %v escaped the cap", d)
	}
}

func TestBackoffWaitAbortsOnCancelledContext(t *testing.T) {
	b := &Backoff{Base: time.Hour, Max: time.Hour, Seed: 7}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := b.Wait(ctx, 1); err == nil {
		t.Fatal("Wait on a cancelled context returned nil")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Wait slept %v despite cancelled context", took)
	}
}

func TestBackoffWaitAbortsMidSleep(t *testing.T) {
	b := &Backoff{Base: time.Hour, Max: time.Hour, Seed: 7}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := b.Wait(ctx, 1); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancel mid-sleep took %v to unblock Wait", took)
	}
}

// TestConcurrentRetryingClients exercises the retry path under -race:
// several RPC clients, each with its own fault injector dropping
// connections and erroring probabilistically, hammer one server
// concurrently. Every push must land exactly once (sequence tokens make
// the retries idempotent).
func TestConcurrentRetryingClients(t *testing.T) {
	params := []*autograd.Tensor{autograd.ParamZeros(100, 4), autograd.ParamZeros(4, 4)}
	server := NewServer(params, map[int]int{0: 0}, "sgd", 0.1)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go Serve(server, lis)

	const clients, pushes = 4, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(lis.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			cl.SetBackoff(Backoff{Attempts: 20, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: int64(c)})
			cl.SetInjector(faultinject.MustParse(
				"PushDelta:err@p0.2; PullDense:err@p0.2; conn:drop@5,11", int64(c)))
			ctx := context.Background()
			for i := 0; i < pushes; i++ {
				cl.PullDense(ctx)
				cl.PushDelta(ctx, Delta{
					WorkerID: c, Seq: int64(i + 1),
					Dense: map[int][]float64{1: make([]float64, 16)},
				})
			}
		}(c)
	}
	wg.Wait()

	if got := server.Counters().DensePushes; got != clients*pushes {
		t.Fatalf("server applied %d pushes, want exactly %d", got, clients*pushes)
	}
}
