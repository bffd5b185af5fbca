// This file is the micro-batched serving path: with Options.BatchMax
// set, /predict goes through a work-conserving scheduler (internal/batch)
// with one slot per replica. A request that finds a replica free is its
// own forward at once; requests that arrive while every replica is busy
// queue, and each forward that finishes takes the longest-waiting
// domain's queue as one batched pass whose scores demultiplex back to
// the waiting handlers. The kernels' determinism contract (textbook
// accumulation order regardless of blocking or row count) plus strictly
// per-row inference math make row r of a B-row forward bit-identical to
// a 1-row forward of the same request: batching changes throughput only.

package serve

import (
	"context"

	"mamdr/internal/batch"
	"mamdr/internal/trace"
)

// viaCoalescer submits one validated job to the coalescer and waits,
// under a serve.batch_wait span, for the flush that carries it through
// execute; the flush's own spans hang under its oldest rider's.
func (s *Server) viaCoalescer(ctx context.Context, domain int, job *predictJob) error {
	ctx, span := trace.Start(ctx, "serve.batch_wait")
	defer span.End()
	it := batch.NewItem(ctx, len(job.ins), job)
	if err := s.coalescer.Submit(domain, it); err != nil {
		return err
	}
	select {
	case res := <-it.Result():
		return res.Err
	case <-ctx.Done():
		// The deadline fired with the request still queued or flying; its
		// eventual result goes to the item's buffered channel, unread.
		return errNoReplica
	}
}

// runBatch executes one coalesced flush. ONE atomic view load pins
// every rider to the same world: a publish, promote, or rollback that
// lands mid-batch swaps the view for the *next* flush and never tears
// this one — the snapshots read here are immutable and stay pinned by
// this frame until the batch completes.
func (s *Server) runBatch(domain int, items []*batch.Item) {
	v := s.view.Load()
	// Rollout-arm routing is preserved under batching: each request
	// hashes to incumbent or canary by its request ID, exactly as the
	// inline path routes, and each arm gets its own batched forward.
	var groups [2]struct {
		items []*batch.Item
		jobs  []*predictJob
	}
	var oldest *batch.Item
	for _, it := range items {
		// The scheduler drops expired riders at the drain; a deadline can
		// still pass between there and here.
		if err := it.Ctx.Err(); err != nil {
			it.Fail(err)
			continue
		}
		if oldest == nil {
			oldest = it
		}
		job := it.Data.(*predictJob)
		job.arm = v.armFor(job.rid, domain)
		g := &groups[0]
		if job.arm.snap == v.canary {
			g = &groups[1]
		}
		g.items, g.jobs = append(g.items, it), append(g.jobs, job)
	}
	if oldest == nil {
		return
	}
	// A flush belongs to no one request, so it waits for a replica on its
	// own clock; its spans land in the trace of its oldest live rider.
	ctx := trace.WithRemote(context.Background(), s.opts.Tracer, trace.ContextOf(oldest.Ctx))
	ctx, cancel := context.WithTimeout(ctx, s.opts.RequestTimeout)
	defer cancel()
	for _, g := range groups {
		if len(g.jobs) == 0 {
			continue
		}
		err := s.execute(ctx, g.jobs[0].arm, domain, g.jobs)
		for _, it := range g.items {
			if err != nil {
				it.Fail(err)
			} else {
				it.Resolve(nil)
			}
		}
	}
}
