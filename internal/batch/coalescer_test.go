package batch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// call is one Run invocation as the gate saw it.
type call struct {
	key   int
	items []*Item
}

// gate is a Run the test steps by hand: every call announces itself on
// entered, then blocks until the test sends on release, then resolves
// its items with their position in the batch. No test below sleeps or
// depends on how fast anything runs.
type gate struct {
	entered chan call
	release chan struct{}

	mu      sync.Mutex
	reasons map[string]int
}

func newGate() *gate {
	return &gate{entered: make(chan call), release: make(chan struct{}), reasons: map[string]int{}}
}

func (g *gate) run(key int, items []*Item) {
	g.entered <- call{key, items}
	<-g.release
	for i, it := range items {
		it.Resolve(i)
	}
}

func (g *gate) onFlush(_ int, requests, rows int, waited time.Duration, reason string) {
	g.mu.Lock()
	g.reasons[reason]++
	g.mu.Unlock()
}

// next waits for the next Run call to start.
func (g *gate) next(t *testing.T) call {
	t.Helper()
	select {
	case c := <-g.entered:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no Run call started")
		return call{}
	}
}

func submit(t *testing.T, c *Coalescer, key, rows int, data any) *Item {
	t.Helper()
	it := NewItem(context.Background(), rows, data)
	if err := c.Submit(key, it); err != nil {
		t.Fatal(err)
	}
	return it
}

func await(t *testing.T, it *Item) Result {
	t.Helper()
	select {
	case res := <-it.Result():
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("item never resolved")
		return Result{}
	}
}

func payloads(c call) []any {
	out := make([]any, len(c.items))
	for i, it := range c.items {
		out[i] = it.Data
	}
	return out
}

// holdSlots fills every slot of c with a one-row item under key -1 and
// returns once each of those Runs is blocked in the gate, so everything
// submitted afterwards queues.
func holdSlots(t *testing.T, c *Coalescer, g *gate, slots int) {
	t.Helper()
	for i := 0; i < slots; i++ {
		submit(t, c, -1, 1, "holder")
		g.next(t)
	}
}

// TestLoneItemDispatchesWithoutWaiting: with a slot free, a submission
// runs at once and alone, whatever Linger says. At the parent commit
// this item waited out the hour.
func TestLoneItemDispatchesWithoutWaiting(t *testing.T) {
	g := newGate()
	c := New(Options{MaxRows: 64, Slots: 2, Linger: time.Hour, Run: g.run, OnFlush: g.onFlush})
	it := submit(t, c, 7, 3, "lone")
	got := g.next(t)
	if got.key != 7 || len(got.items) != 1 || got.items[0] != it {
		t.Fatalf("Run(key %d, %v), want the lone item under key 7", got.key, payloads(got))
	}
	g.release <- struct{}{}
	if res := await(t, it); res.Err != nil || res.Value.(int) != 0 {
		t.Fatalf("resolved to %+v", res)
	}
	if !reflect.DeepEqual(g.reasons, map[string]int{"idle": 1}) {
		t.Fatalf("reasons = %v, want one idle flush", g.reasons)
	}
}

// drains holds c's only slot, queues one item per entry of rows under
// key 0 (Data = its index), and checks that the backlog leaves as the
// batches want lists, in that order.
func drains(t *testing.T, c *Coalescer, g *gate, rows []int, want [][]any) {
	t.Helper()
	holdSlots(t, c, g, 1)
	var items []*Item
	for i, r := range rows {
		items = append(items, submit(t, c, 0, r, i))
	}
	for _, w := range want {
		g.release <- struct{}{}
		if got := g.next(t); got.key != 0 || !reflect.DeepEqual(payloads(got), w) {
			t.Fatalf("batch = key %d %v, want key 0 %v", got.key, payloads(got), w)
		}
	}
	g.release <- struct{}{}
	for _, w := range want {
		for pos, i := range w {
			if res := await(t, items[i.(int)]); res.Err != nil || res.Value.(int) != pos {
				t.Fatalf("item %d resolved to %+v, want position %d of its batch", i, res, pos)
			}
		}
	}
}

// TestFlushOnFull: with every slot held, N one-row submissions to one
// key leave as ceil(N/MaxRows) batches in arrival order — a batch
// closes when the next item would overflow it, not before.
func TestFlushOnFull(t *testing.T) {
	g := newGate()
	c := New(Options{MaxRows: 4, Slots: 1, Run: g.run})
	drains(t, c, g, []int{1, 1, 1, 1, 1, 1, 1, 1, 1}, [][]any{{0, 1, 2, 3}, {4, 5, 6, 7}, {8}})
}

// TestNeverSplitsAnItem: an item that does not fit closes the batch
// instead of being split or overtaken by a smaller one behind it, and
// an oversize item rides alone.
func TestNeverSplitsAnItem(t *testing.T) {
	g := newGate()
	c := New(Options{MaxRows: 8, Slots: 1, Run: g.run})
	// 3+3+2 | 5 (+6 > 8) | 6 (+100 > 8) | 100 alone | 1
	drains(t, c, g, []int{3, 3, 2, 5, 6, 100, 1}, [][]any{{0, 1, 2}, {3}, {4}, {5}, {6}})
}

// TestOversizeItemFlushesAlone: a single item past MaxRows still runs.
func TestOversizeItemFlushesAlone(t *testing.T) {
	c := New(Options{MaxRows: 8, Run: func(_ int, items []*Item) { items[0].Resolve(len(items)) }})
	if res := await(t, submit(t, c, 0, 100, nil)); res.Value.(int) != 1 {
		t.Fatalf("res = %+v, want a batch of one", res)
	}
}

// TestBatchingActuallyHappens: submitters racing one another while the
// slot is busy share the next forward — otherwise the coalescer is a
// very elaborate pass-through.
func TestBatchingActuallyHappens(t *testing.T) {
	g := newGate()
	c := New(Options{MaxRows: 64, Slots: 1, Run: g.run})
	holdSlots(t, c, g, 1)
	var wg sync.WaitGroup
	for s := 0; s < 16; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Submit(0, NewItem(context.Background(), 1, nil)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	g.release <- struct{}{}
	if got := g.next(t); len(got.items) != 16 {
		t.Fatalf("batch of %d, want all 16 queued requests in one", len(got.items))
	}
	g.release <- struct{}{}
}

// TestKeysDoNotMix: batches never mix keys, and a freed slot goes to the
// key whose head item arrived first, not to the key with the most
// waiting — a tail key is not starved by a hot one.
func TestKeysDoNotMix(t *testing.T) {
	g := newGate()
	c := New(Options{MaxRows: 4, Slots: 1, Run: g.run})
	holdSlots(t, c, g, 1)
	submit(t, c, 9, 1, "tail") // first in, alone under its key
	for i := 0; i < 6; i++ {
		submit(t, c, 1, 1, "hot")
	}
	submit(t, c, 9, 1, "tail") // joins the first: same key, still queued
	for _, w := range []struct{ key, n int }{{9, 2}, {1, 4}, {1, 2}} {
		g.release <- struct{}{}
		got := g.next(t)
		if got.key != w.key || len(got.items) != w.n {
			t.Fatalf("Run(key %d, %v), want %d items of key %d", got.key, payloads(got), w.n, w.key)
		}
		for _, p := range payloads(got) {
			if (p == "tail") != (got.key == 9) {
				t.Fatalf("key %d batch carries %v", got.key, payloads(got))
			}
		}
	}
	g.release <- struct{}{}
}

// TestOnFlushObservesReasons: OnFlush sees each batch's live requests
// and rows, a zero wait for a batch that found a slot free and the
// queueing time of the oldest rider otherwise, and exactly the reasons
// idle, slot and close.
func TestOnFlushObservesReasons(t *testing.T) {
	type flushed struct {
		requests, rows int
		queued         bool
		reason         string
	}
	var mu sync.Mutex
	var got []flushed
	g := newGate()
	c := New(Options{MaxRows: 8, Slots: 1, Run: g.run,
		OnFlush: func(_ int, requests, rows int, waited time.Duration, reason string) {
			mu.Lock()
			got = append(got, flushed{requests, rows, waited > 0, reason})
			mu.Unlock()
		}})
	holdSlots(t, c, g, 1)
	submit(t, c, 0, 2, nil)
	submit(t, c, 0, 3, nil)
	g.release <- struct{}{}
	g.next(t)
	submit(t, c, 0, 4, nil)
	c.Close()
	g.release <- struct{}{}
	g.next(t)
	g.release <- struct{}{}
	mu.Lock()
	defer mu.Unlock()
	want := []flushed{{1, 1, false, "idle"}, {2, 5, true, "slot"}, {1, 4, true, "close"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flushes = %+v, want %+v", got, want)
	}
}

// TestExpiredItemsYieldTheirRows: an item whose context is done when a
// slot reaches it fails with that context's error, gives its rows to
// the live items behind it, and is not counted by OnFlush; a key with
// only expired items costs no Run.
func TestExpiredItemsYieldTheirRows(t *testing.T) {
	g := newGate()
	var requests, rows atomic.Int64
	c := New(Options{MaxRows: 4, Slots: 1, Run: g.run,
		OnFlush: func(_ int, rq, rw int, _ time.Duration, reason string) {
			if reason == "slot" {
				requests.Add(int64(rq))
				rows.Add(int64(rw))
			}
		}})
	holdSlots(t, c, g, 1)
	gone, cancel := context.WithCancel(context.Background())
	var dead []*Item
	for _, key := range []int{3, 5, 5} { // key 3: expired only; key 5: two expired ahead of the live
		it := NewItem(gone, 2, "dead")
		dead = append(dead, it)
		if err := c.Submit(key, it); err != nil {
			t.Fatal(err)
		}
	}
	live := []*Item{submit(t, c, 5, 2, "live"), submit(t, c, 5, 2, "live")}
	cancel()
	g.release <- struct{}{}
	got := g.next(t)
	if got.key != 5 || !reflect.DeepEqual(payloads(got), []any{"live", "live"}) {
		t.Fatalf("Run(key %d, %v), want both live items of key 5 in one batch", got.key, payloads(got))
	}
	for _, it := range dead {
		if res := await(t, it); !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("expired item resolved to %+v, want context.Canceled", res)
		}
	}
	g.release <- struct{}{}
	for _, it := range live {
		await(t, it)
	}
	if requests.Load() != 2 || rows.Load() != 4 {
		t.Fatalf("OnFlush saw %d requests / %d rows, want the 2 live / 4", requests.Load(), rows.Load())
	}
}

// TestCloseFlushesAndRejects: Close turns submissions away at once and
// the queue it found still resolves, item by item, as slots free up.
func TestCloseFlushesAndRejects(t *testing.T) {
	g := newGate()
	c := New(Options{MaxRows: 2, Slots: 1, Run: g.run, OnFlush: g.onFlush})
	holdSlots(t, c, g, 1)
	queued := []*Item{submit(t, c, 0, 1, 0), submit(t, c, 0, 1, 1), submit(t, c, 4, 1, 2)}
	c.Close()
	c.Close() // idempotent
	if err := c.Submit(0, NewItem(context.Background(), 1, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	for _, w := range [][]any{{0, 1}, {2}} {
		g.release <- struct{}{}
		if got := g.next(t); !reflect.DeepEqual(payloads(got), w) {
			t.Fatalf("batch after close = %v, want %v", payloads(got), w)
		}
	}
	g.release <- struct{}{}
	for _, it := range queued {
		if res := await(t, it); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if !reflect.DeepEqual(g.reasons, map[string]int{"idle": 1, "close": 2}) {
		t.Fatalf("reasons = %v, want idle:1 close:2", g.reasons)
	}
}

// TestConcurrentSubmitters hammers three keys from 64 goroutines under
// -race: Run calls in flight never exceed Slots, no batch exceeds
// MaxRows (items are one row) or mixes keys, every item resolves
// exactly once, and every flush is "idle" or "slot".
func TestConcurrentSubmitters(t *testing.T) {
	const submitters, perSubmitter, maxRows, slots = 64, 50, 16, 3
	var inFlight, peak, resolved, flushes atomic.Int64
	var mu sync.Mutex
	reasons := map[string]int{}
	c := New(Options{
		MaxRows: maxRows, Slots: slots,
		Run: func(key int, items []*Item) {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if len(items) > maxRows {
				t.Errorf("batch of %d rows exceeds max %d", len(items), maxRows)
			}
			for _, it := range items {
				if it.Data.(int) != key {
					t.Errorf("key %d batch carries an item of key %d", key, it.Data)
				}
			}
			inFlight.Add(-1)
			for _, it := range items {
				it.Resolve(nil)
			}
		},
		OnFlush: func(_ int, _, _ int, _ time.Duration, reason string) {
			flushes.Add(1)
			mu.Lock()
			reasons[reason]++
			mu.Unlock()
		},
	})
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(key int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				it := NewItem(context.Background(), 1, key)
				if err := c.Submit(key, it); err != nil {
					t.Error(err)
					return
				}
				if res := <-it.Result(); res.Err != nil {
					t.Error(res.Err)
					return
				}
				resolved.Add(1)
			}
		}(s % 3)
	}
	wg.Wait()
	if got := resolved.Load(); got != submitters*perSubmitter {
		t.Fatalf("resolved %d items, want %d", got, submitters*perSubmitter)
	}
	if peak.Load() > slots {
		t.Fatalf("%d Run calls in flight, want <= %d", peak.Load(), slots)
	}
	if reasons["idle"] == 0 || reasons["idle"]+reasons["slot"] != int(flushes.Load()) {
		t.Fatalf("reasons = %v over %d flushes, want only idle and slot", reasons, flushes.Load())
	}
}

func TestFailPropagates(t *testing.T) {
	boom := errors.New("boom")
	c := New(Options{MaxRows: 1, Run: func(_ int, items []*Item) {
		for _, it := range items {
			it.Fail(boom)
		}
	}})
	if res := await(t, submit(t, c, 0, 1, nil)); !errors.Is(res.Err, boom) {
		t.Fatalf("res = %+v, want boom", res)
	}
}

func ExampleCoalescer() {
	c := New(Options{
		MaxRows: 2,
		Run: func(key int, items []*Item) {
			for _, it := range items {
				it.Resolve(fmt.Sprintf("key %d, %d rows", key, it.Rows))
			}
		},
	})
	it := NewItem(context.Background(), 2, nil)
	c.Submit(5, it)
	res := <-it.Result()
	fmt.Println(res.Value)
	// Output: key 5, 2 rows
}
