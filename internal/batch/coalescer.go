// Package batch coalesces concurrent requests into micro-batches — the
// serving-side execution shape production CTR systems use to amortize
// per-request forward-pass overhead. Callers submit items keyed by an
// integer (the serving layer keys by domain) and the coalescer hands
// groups of same-key items to Run, at most Slots calls at a time: B
// queued one-row requests become one B-row forward through the blocked
// GEMM kernels instead of B one-row passes.
//
// The scheduler is work-conserving — no timer, one policy:
//
//   - items queue only while every slot is busy: a submission that
//     finds a free slot is dispatched at once, alone;
//   - a slot freed by a returning Run goes to the key of the item that
//     has queued longest and takes that key's oldest items up to MaxRows:
//     batches grow with the backlog and a hot key starves no other;
//   - an item is never split across batches: a request's rows always
//     score in one forward, so its scores come from one snapshot.
package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// ErrClosed rejects submissions after Close.
var ErrClosed = errors.New("batch: coalescer closed")

// Item is one request riding a batch: Rows is its row count (the serving
// layer's user-item pairs), Data the caller's payload, passed untouched.
type Item struct {
	// Ctx is the submitter's context: an item whose Ctx is done when a slot
	// reaches it fails with Ctx.Err() instead of riding. Run checks again.
	Ctx  context.Context
	Rows int
	Data any
	res  chan Result
	key  int       // set while queued
	at   time.Time // when the item queued
}

// Result is what an Item resolves to.
type Result struct {
	Value any
	Err   error
}

// NewItem builds a submittable item. The result channel is buffered so
// Resolve/Fail never block even if the submitter has given up waiting.
func NewItem(ctx context.Context, rows int, data any) *Item {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Item{Ctx: ctx, Rows: rows, Data: data, res: make(chan Result, 1)}
}

// Result returns the channel the item's outcome arrives on.
func (it *Item) Result() <-chan Result { return it.res }

// Resolve delivers the item's value; exactly one of Resolve/Fail, once.
func (it *Item) Resolve(v any) { it.res <- Result{Value: v} }

// Fail delivers an error instead.
func (it *Item) Fail(err error) { it.res <- Result{Err: err} }

// Options configures a Coalescer.
type Options struct {
	// MaxRows bounds a batch's row count (minimum 1). An item with
	// Rows >= MaxRows rides alone — items are never split.
	MaxRows int
	// Slots is how many Run calls may be in flight at once (serve
	// passes its replica count). Zero or negative means GOMAXPROCS.
	Slots int
	// Linger is ignored (cmd/mamdr-bench still sets it): a timer could
	// only cut a batch early and move its wait to whatever Run blocks on.
	Linger time.Duration
	// Run executes one batch, on a goroutine of the coalescer's (never
	// a submitter's), and must Resolve or Fail every item.
	Run func(key int, items []*Item)
	// OnFlush, when non-nil, observes every batch before it runs: requests,
	// rows, how long the oldest queued for a slot, and why it left — "idle"
	// (a slot was free: waited is 0), "slot" (a Run returned) or "close".
	OnFlush func(key int, requests, rows int, waited time.Duration, reason string)
}

// Coalescer gathers items into per-key micro-batches; safe for concurrent use.
type Coalescer struct {
	opts Options
	mu   sync.Mutex
	// pending: every key's waiting items in arrival order; none unless busy == Slots.
	pending []*Item
	busy    int
	closed  bool
}

// flush is one batch on its way to Run, with what OnFlush reports.
type flush struct {
	key, rows int
	items     []*Item
	waited    time.Duration
	reason    string
}

// New builds a coalescer. Run is required.
func New(opts Options) *Coalescer {
	if opts.Run == nil {
		panic("batch: Options.Run is required")
	}
	if opts.MaxRows < 1 {
		opts.MaxRows = 1
	}
	if opts.Slots < 1 {
		opts.Slots = runtime.GOMAXPROCS(0)
	}
	return &Coalescer{opts: opts}
}

// Submit hands an item to a free slot, or queues it under key when
// there is none; the caller waits on item.Result(). After Close it fails.
func (c *Coalescer) Submit(key int, it *Item) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return ErrClosed
	case c.busy < c.opts.Slots:
		c.busy++
		go c.occupy(flush{key: key, items: []*Item{it}, rows: it.Rows, reason: "idle"})
	default:
		it.key, it.at = key, time.Now()
		c.pending = append(c.pending, it)
	}
	return nil
}

// occupy holds one slot: it runs f, then whatever is queued each time
// Run returns, and gives the slot back once nothing is. Two yields keep
// batches from being cut short when requests wait for the processor, not
// for a slot: before the first Run, so whoever else is runnable submits
// (and queues behind this slot) first; after a Run that had several riders
// (a backlog), so they resubmit before the next cut. A yield with nothing
// runnable returns at once; a lone rider's slot is freed without one.
func (c *Coalescer) occupy(f flush) {
	runtime.Gosched()
	for f.items != nil {
		if c.opts.OnFlush != nil {
			c.opts.OnFlush(f.key, len(f.items), f.rows, f.waited, f.reason)
		}
		c.opts.Run(f.key, f.items)
		if len(f.items) > 1 {
			runtime.Gosched()
		}
		c.mu.Lock()
		if f = c.nextLocked(); f.items == nil {
			c.busy--
		}
		c.mu.Unlock()
	}
}

// nextLocked detaches the next batch: the oldest live item and, in
// arrival order, the items of its key that fit MaxRows with it — none
// past the first that does not, so a key stays first-in-first-out. Items
// whose context is done (at the head, or of that key) are failed here and
// take no rows. No items: nothing live is queued. Caller holds c.mu.
func (c *Coalescer) nextLocked() flush {
	f := flush{reason: "slot"}
	if c.closed {
		f.reason = "close"
	}
	rest, full := c.pending[:0], false
	for _, it := range c.pending {
		if f.items != nil && (it.key != f.key || full) {
			rest = append(rest, it)
		} else if err := it.Ctx.Err(); err != nil {
			it.Fail(err)
		} else if f.items != nil && f.rows+it.Rows > c.opts.MaxRows {
			rest, full = append(rest, it), true
		} else {
			f.key, f.items, f.rows = it.key, append(f.items, it), f.rows+it.Rows
		}
	}
	clear(c.pending[len(rest):]) // dropped pointers must not pin their requests
	if c.pending = rest; f.items != nil {
		f.waited = time.Since(f.items[0].at)
	}
	return f
}

// Close rejects further submissions; queued items drain, and Close does not wait.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}
