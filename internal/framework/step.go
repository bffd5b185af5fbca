package framework

import (
	"context"
	"math/rand"

	"mamdr/internal/autograd"
	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/trace"
)

// Stepper runs mini-batch train steps on one model at a cost of
// O(dense parameters + embedding rows the batch gathers) where it can,
// and O(|θ|) where it must.
//
// The rows a batch gathers (models.RowSet) are an input of the step: its
// backward writes those rows of each declared table's Grad and no
// others. When the optimizer steps by rows (optim.RowStepper: SGD,
// Adagrad, for which a zero gradient is a no-op) the step therefore
// clears and steps only those rows, which is float for float the dense
// step. Under Adam, or for a model that declares no tables, it clears and
// steps every entry as before. The choice is read from the optimizer's
// type and the model on every step; there is no knob.
//
// Grad-buffer invariant. Between the steps of one Stepper, a declared
// table's Grad is zero outside the rows of the last backward (the set
// the Stepper remembers). ZeroGrad establishes it and every step keeps
// it, so dense readers of Grad — EpochRecorder's grad-norm and
// paramvec.SnapshotGrads — see exactly one batch's gradient, as they did
// when every step cleared everything. Code that
// fills Grad densely outside a Stepper (the DN outer step, MAML/MLDG/
// PCGrad's combined gradients, DomainGradient) breaks it for any Stepper
// alive at the time, so none is kept across such a writer: a caller whose
// readers matter starts a fresh Stepper with ZeroGrad — one full pass on
// entry. A caller with no dense reader may skip it: parameters never
// depend on the invariant, because a step always clears the rows it is
// about to accumulate into.
type Stepper struct {
	model  models.Model
	params []*autograd.Tensor
	// dense are the parameters that are no declared table.
	dense []*autograd.Tensor
	// rows is the support of the table gradients: the last step's batch.
	// After a dense step nobody gathered them and denseGrad is set.
	rows      models.RowSet
	denseGrad bool
	// moved is every row a row-restricted step has written since
	// ResetMoved (nil, and not kept, until a caller asks by calling it);
	// allMoved records that a dense step ran, after which any entry may
	// have moved.
	moved    models.RowSet
	allMoved bool
	// before and after, when set (InnerLoopEpoch), run around every
	// mini-batch of Pass.
	before func(context.Context, *data.Batch)
	after  func(context.Context)
}

// NewStepper prepares train steps on m.
func NewStepper(m models.Model) *Stepper {
	params := m.Parameters()
	tables := models.EmbeddingTablesOf(m)
	s := &Stepper{model: m, params: params, rows: models.NewRowSet(params, tables)}
	for i, p := range params {
		if _, isTable := tables[i]; !isTable {
			s.dense = append(s.dense, p)
		}
	}
	return s
}

// ZeroGrad clears every gradient buffer: the one full pass that
// establishes the grad-buffer invariant.
func (s *Stepper) ZeroGrad() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
	s.rows.Reset()
}

// zeroRows clears the remembered rows of every table's Grad.
func (s *Stepper) zeroRows() {
	for _, t := range s.rows {
		p := s.params[t.Param]
		for _, r := range t.Rows {
			clear(p.Grad[r*p.Cols : (r+1)*p.Cols])
		}
	}
}

// Step runs one forward, backward and optimizer step on b and returns
// the batch loss. When ctx carries a sampled span the three phases emit
// train.forward / train.backward / train.optimizer child spans.
func (s *Stepper) Step(ctx context.Context, b *data.Batch, opt optim.Optimizer) float64 {
	rowOpt, isRowOpt := opt.(optim.RowStepper)
	sparse := len(s.rows) > 0 && isRowOpt
	if !sparse || s.denseGrad {
		// Everything: the dense loop as it always was — or the one full
		// clear when a row step follows a dense one, whose gradient sits
		// in rows nobody remembered.
		s.ZeroGrad()
	} else {
		for _, p := range s.dense {
			p.ZeroGrad()
		}
		s.zeroRows() // the previous batch's
	}
	s.denseGrad = !sparse
	if sparse {
		s.rows.Gather(b)
		s.zeroRows() // this batch's, whatever an earlier writer left there
	}

	_, fw := trace.Start(ctx, "train.forward")
	logits := s.model.Forward(b, true)
	loss := autograd.BCEWithLogits(logits, b.Labels)
	fw.End()
	_, bw := trace.Start(ctx, "train.backward")
	loss.Backward()
	bw.End()
	_, op := trace.Start(ctx, "train.optimizer")
	if sparse {
		opt.Step(s.dense)
		for k, t := range s.rows {
			rowOpt.StepRows(s.params[t.Param], t.Rows)
			if s.moved != nil {
				s.moved[k].Rows = append(s.moved[k].Rows, t.Rows...)
			}
		}
	} else {
		opt.Step(s.params)
		s.allMoved = true
	}
	op.End()
	v := loss.Item()
	loss.Release()
	return v
}

// Pass runs steps over one domain's train split: a full shuffled pass,
// capped at maxBatches when positive. It returns the mean training loss
// over the consumed batches.
func (s *Stepper) Pass(ctx context.Context, ds *data.Dataset, domain int, opt optim.Optimizer, batchSize, maxBatches int, rng *rand.Rand) float64 {
	batches := ds.Batches(domain, data.Train, batchSize, rng)
	if maxBatches > 0 && len(batches) > maxBatches {
		batches = batches[:maxBatches]
	}
	if len(batches) == 0 {
		return 0
	}
	var total float64
	for _, b := range batches {
		if s.before != nil {
			s.before(ctx, b)
		}
		total += s.Step(ctx, b, opt)
		if s.after != nil {
			s.after(ctx)
		}
	}
	return total / float64(len(batches))
}

// InnerLoopEpoch is Algorithm 1's inner loop — "for each domain in random
// order, update Θ̃ on T_i" — written once: core's DN and alternate epochs,
// the PS worker's epoch, Alternate.Fit and CDRTransfer's warm start all
// run it. It trains m on the domains of order in turn, one Pass each with
// opt, on one Stepper whose one ZeroGrad it pays on entry (so the
// recorder's grad-norm reads one batch's gradient after every pass); each
// pass runs under a "<span>.inner_step" span of ctx and is recorded in
// cfg.Telemetry, tagged with worker (-1 outside the PS trainer). What is
// seeded — the parameters m holds, its dropout stream, the order — the
// caller sets up first, and the caller closes the epoch: Finish on the
// returned recorder, once its outer step, if it has one, is timed. before
// and after, when non-nil, run around every mini-batch under the pass's
// span.
func InnerLoopEpoch(ctx context.Context, m models.Model, ds *data.Dataset, order []int, opt optim.Optimizer, cfg Config, rng *rand.Rand, span string, worker int, before func(context.Context, *data.Batch), after func(context.Context)) *EpochRecorder {
	rec := cfg.Telemetry.NewEpochRecorder(m.Parameters(), worker)
	step := NewStepper(m)
	step.before, step.after = before, after
	step.ZeroGrad()
	for _, d := range order {
		attrs := []trace.Attr{trace.A("domain", ds.Domains[d].Name)}
		if worker >= 0 {
			attrs = append(attrs, trace.A("worker", worker))
		}
		passCtx, passSpan := trace.Start(ctx, span+".inner_step", attrs...)
		rec.BeforePass()
		loss := step.Pass(passCtx, ds, d, opt, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
		passSpan.EndWith(trace.A("loss", loss))
		rec.AfterPassTC(d, loss, passSpan.Context())
	}
	return rec
}

// ResetMoved starts a report of which table rows the steps from here on
// write; a Stepper nobody asks keeps none.
func (s *Stepper) ResetMoved() {
	if s.moved == nil {
		s.moved = models.NewRowSet(s.params, models.EmbeddingTablesOf(s.model))
	}
	s.moved.Reset()
	s.allMoved = false
}

// Moved returns the report ResetMoved started. all is true when a dense
// step ran: then any entry of any parameter may have moved and rows is
// meaningless. Otherwise rows lists, per declared table in parameter
// order, the only rows that can differ from their values at ResetMoved
// (parameters that are no table always may have moved). rows is the
// Stepper's own storage, valid until the next Step or ResetMoved.
func (s *Stepper) Moved() (rows models.RowSet, all bool) {
	s.moved.Compact()
	return s.moved, s.allMoved
}
