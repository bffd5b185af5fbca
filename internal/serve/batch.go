// This file is the micro-batched serving path: with Options.BatchMax
// set, concurrent /predict requests for the same domain coalesce into
// one batched forward pass — B single-row requests become one B-row
// MatMul through the blocked GEMM kernels — and the scores demultiplex
// back to the waiting handlers. The kernels' determinism contract
// (every output element accumulates in textbook order regardless of
// blocking or row count) plus the models' strictly per-row inference
// math make row r of a B-row forward bit-identical to a 1-row forward
// of the same request, so batching changes throughput and nothing
// else.

package serve

import (
	"context"

	"mamdr/internal/batch"
)

// viaCoalescer submits one validated job to the coalescer and waits for
// the flush that carries it through execute.
func (s *Server) viaCoalescer(ctx context.Context, domain int, job *predictJob) error {
	it := batch.NewItem(ctx, len(job.ins), job)
	if err := s.coalescer.Submit(domain, it); err != nil {
		return err
	}
	select {
	case res := <-it.Result():
		return res.Err
	case <-ctx.Done():
		// The deadline fired while the batch was still queued or flying;
		// the item's eventual result goes to its buffered channel and is
		// garbage collected with it.
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
	// hashes to incumbent or canary independently by its request ID,
	// exactly as the inline path routes, so one micro-batch may split
	// across arms — each arm then gets its own batched forward.
	var groups [2]struct {
		items []*batch.Item
		jobs  []*predictJob
	}
	for _, it := range items {
		if err := it.Ctx.Err(); err != nil {
			it.Fail(err)
			continue
		}
		job := it.Data.(*predictJob)
		job.arm = v.armFor(job.rid, domain)
		g := &groups[0]
		if job.arm.snap == v.canary {
			g = &groups[1]
		}
		g.items, g.jobs = append(g.items, it), append(g.jobs, job)
	}
	// A flush belongs to no one request, so it waits for a replica on its
	// own clock.
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
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
