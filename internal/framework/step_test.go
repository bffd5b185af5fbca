package framework

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
)

// denseOnly hides a model's EmbeddingTables(): the Stepper then knows no
// tables and takes the dense path, which is the loop as it always was —
// full ZeroGrad, full Step, every mini-batch.
type denseOnly struct{ models.Model }

func vectorsBitEqual(a, b paramvec.Vector) bool {
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// rowOutside returns a row of m's first table that batch a gathers and
// batch b does not.
func rowOutside(t *testing.T, m models.Model, a, b *data.Batch) (param, row int) {
	t.Helper()
	ra, rb := models.NewRowSet(m.Parameters(), models.EmbeddingTablesOf(m)), models.NewRowSet(m.Parameters(), models.EmbeddingTablesOf(m))
	ra.Gather(a)
	rb.Gather(b)
	for k := range ra {
		for _, r := range ra[k].Rows {
			if !slices.Contains(rb[k].Rows, r) {
				return ra[k].Param, r
			}
		}
	}
	t.Fatal("the two batches gather the same rows; the test needs one that only the first touches")
	return 0, 0
}

// TestStepperRowPathEqualsDensePath: under SGD and Adagrad the Stepper
// steps only gathered rows; parameters, losses and the gradient buffers
// a dense reader sees after every step are bit-identical to the dense
// loop's. It also pins what Moved reports. Under Adam the Stepper takes
// the dense loop itself, and a row outside the batch moves — nobody made
// it lazy.
func TestStepperRowPathEqualsDensePath(t *testing.T) {
	ds := testDataset(t)
	batches := append(ds.Batches(2, data.Train, 16, nil)[:2], ds.Batches(1, data.Train, 16, nil)[:2]...)
	ctx := context.Background()
	for name, build := range map[string]func() optim.Optimizer{
		"sgd":     func() optim.Optimizer { return optim.NewSGD(0.1) },
		"adagrad": func() optim.Optimizer { return optim.NewAdagrad(0.1) },
		"adam":    func() optim.Optimizer { return optim.NewAdam(0.01) },
	} {
		rowModel, denseModel := testModel(t, ds), denseOnly{testModel(t, ds)}
		rows, dense := NewStepper(rowModel), NewStepper(denseModel)
		rows.ZeroGrad()
		dense.ZeroGrad()
		rows.ResetMoved()
		dense.ResetMoved()
		rowOpt, denseOpt := build(), build()
		lazy := name == "sgd" || name == "adagrad"

		param, outside := rowOutside(t, rowModel, batches[0], batches[1])
		var atStep0 []float64
		for i, b := range batches {
			lr, ld := rows.Step(ctx, b, rowOpt), dense.Step(ctx, b, denseOpt)
			if math.Float64bits(lr) != math.Float64bits(ld) {
				t.Fatalf("%s step %d: loss %v on the row path, %v on the dense path", name, i, lr, ld)
			}
			if !vectorsBitEqual(paramvec.Snapshot(rowModel.Parameters()), paramvec.Snapshot(denseModel.Parameters())) {
				t.Fatalf("%s step %d: parameters differ between row path and dense path", name, i)
			}
			if !vectorsBitEqual(paramvec.SnapshotGrads(rowModel.Parameters()), paramvec.SnapshotGrads(denseModel.Parameters())) {
				t.Fatalf("%s step %d: gradient buffers differ: a dense reader (grad-norm, SnapshotGrads) would see another batch's rows", name, i)
			}
			p := rowModel.Parameters()[param]
			row := p.Data[outside*p.Cols : (outside+1)*p.Cols]
			switch i {
			case 0:
				atStep0 = slices.Clone(row)
			case 1:
				if moved := !slices.Equal(row, atStep0); moved == lazy {
					t.Fatalf("%s: row %d is outside batch 1; moved=%v", name, outside, moved)
				}
			}
		}

		moved, all := rows.Moved()
		if all == lazy {
			t.Fatalf("%s: Moved reports all=%v", name, all)
		}
		if lazy {
			want := models.NewRowSet(rowModel.Parameters(), models.EmbeddingTablesOf(rowModel))
			for _, b := range batches {
				want.Add(b)
			}
			want.Compact()
			for k := range want {
				if !slices.Equal(moved[k].Rows, want[k].Rows) {
					t.Fatalf("%s: Moved table %d = %v, want the union of the batches' rows %v", name, want[k].Param, moved[k].Rows, want[k].Rows)
				}
			}
		}
		rows.ResetMoved()
		if moved, all := rows.Moved(); all || len(moved[0].Rows) != 0 {
			t.Fatalf("%s: ResetMoved left %v, all=%v", name, moved[0].Rows, all)
		}
		if _, all := dense.Moved(); !all {
			t.Fatalf("%s: a model that declares no tables always steps densely", name)
		}
	}
}

// TestStepperParametersDoNotDependOnGradBuffers: a Stepper that skips
// ZeroGrad (as DR's does) over buffers a dense writer left full still
// lands on the dense loop's parameters — only dense readers of Grad need
// the clean start.
func TestStepperParametersDoNotDependOnGradBuffers(t *testing.T) {
	ds := testDataset(t)
	ctx := context.Background()
	dirty, clean := testModel(t, ds), denseOnly{testModel(t, ds)}
	for _, p := range dirty.Parameters() {
		for i := range p.Grad {
			p.Grad[i] = 7
		}
	}
	a, b := NewStepper(dirty), NewStepper(clean)
	for _, batch := range ds.Batches(0, data.Train, 16, nil)[:3] {
		a.Step(ctx, batch, optim.NewSGD(0.1))
		b.Step(ctx, batch, optim.NewSGD(0.1))
	}
	if !vectorsBitEqual(paramvec.Snapshot(dirty.Parameters()), paramvec.Snapshot(clean.Parameters())) {
		t.Fatal("stale gradient rows reached a parameter")
	}
}

// TestStepperSurvivesOptimizerSwitch: the path is chosen per step, so a
// Stepper may see a dense step (whose gradient rows it does not record)
// followed by a row step; parameters and gradient buffers still match the
// dense loop at every step.
func TestStepperSurvivesOptimizerSwitch(t *testing.T) {
	ds := testDataset(t)
	ctx := context.Background()
	rowModel, denseModel := testModel(t, ds), denseOnly{testModel(t, ds)}
	rows, dense := NewStepper(rowModel), NewStepper(denseModel)
	rows.ZeroGrad()
	dense.ZeroGrad()
	type pair struct{ rows, dense optim.Optimizer }
	adam, sgd := pair{optim.NewAdam(0.01), optim.NewAdam(0.01)}, pair{optim.NewSGD(0.1), optim.NewSGD(0.1)}
	batches := ds.Batches(0, data.Train, 16, nil)
	for i, opt := range []pair{adam, sgd, sgd, adam, sgd} {
		rows.Step(ctx, batches[i], opt.rows)
		dense.Step(ctx, batches[i], opt.dense)
		if !vectorsBitEqual(paramvec.Snapshot(rowModel.Parameters()), paramvec.Snapshot(denseModel.Parameters())) ||
			!vectorsBitEqual(paramvec.SnapshotGrads(rowModel.Parameters()), paramvec.SnapshotGrads(denseModel.Parameters())) {
			t.Fatalf("step %d: parameters or gradient buffers differ from the dense loop after an optimizer switch", i)
		}
	}
}

// TestAlternateFitMatchesReferenceSpelling: Alternate.Fit through the
// shared inner loop lands, float for float, where the loop it replaced
// does — per epoch one rng.Perm, then one TrainDomainPass (a fresh
// Stepper and a full ZeroGrad) per domain, on one optimizer kept across
// epochs. The old spelling lives on here as the reference. Dropout is on
// so a mask drawn out of turn would show.
func TestAlternateFitMatchesReferenceSpelling(t *testing.T) {
	ds := testDataset(t)
	build := func() models.Model {
		return models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 4, Hidden: []int{16, 8}, Dropout: 0.2, Seed: 5})
	}
	for _, inner := range []string{"adam", "sgd"} {
		cfg := Config{Epochs: 4, BatchSize: 16, InnerOpt: inner, LR: 0.05, MaxBatchesPerDomain: 5, Seed: 3}.WithDefaults()

		want := build()
		rng := rand.New(rand.NewSource(cfg.Seed))
		opt := optim.New(cfg.InnerOpt, cfg.LR)
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for _, d := range rng.Perm(ds.NumDomains()) {
				TrainDomainPass(want, ds, d, opt, cfg.BatchSize, cfg.MaxBatchesPerDomain, rng)
			}
		}

		got := build()
		Alternate{}.Fit(got, ds, cfg)
		if !vectorsBitEqual(paramvec.Snapshot(want.Parameters()), paramvec.Snapshot(got.Parameters())) {
			t.Fatalf("%s: Alternate.Fit differs from one TrainDomainPass per domain on a persistent optimizer", inner)
		}
	}
}

// TestInnerLoopEpochHooksRunAroundEveryBatch: before sees each batch of
// each pass, in order, ahead of its step; after follows the step; and a
// loop with hooks trains exactly as one without.
func TestInnerLoopEpochHooksRunAroundEveryBatch(t *testing.T) {
	ds := testDataset(t)
	cfg := Config{BatchSize: 16, MaxBatchesPerDomain: 3}
	order := []int{2, 0, 1}
	bare, hooked := testModel(t, ds), testModel(t, ds)
	ctx := context.Background()
	InnerLoopEpoch(ctx, bare, ds, order, optim.NewSGD(0.1), cfg, rand.New(rand.NewSource(4)), "test", -1, nil, nil)

	var trace []int // a batch's domain at before, -1 at after
	stepped := paramvec.Snapshot(hooked.Parameters())
	InnerLoopEpoch(ctx, hooked, ds, order, optim.NewSGD(0.1), cfg, rand.New(rand.NewSource(4)), "test", -1,
		func(_ context.Context, b *data.Batch) {
			if !vectorsBitEqual(stepped, paramvec.Snapshot(hooked.Parameters())) {
				t.Error("before ran after its batch's step")
			}
			trace = append(trace, b.Domain)
		},
		func(context.Context) {
			if vectorsBitEqual(stepped, paramvec.Snapshot(hooked.Parameters())) {
				t.Error("after ran ahead of its batch's step")
			}
			stepped = paramvec.Snapshot(hooked.Parameters())
			trace = append(trace, -1)
		})
	if want := []int{2, -1, 2, -1, 2, -1, 0, -1, 0, -1, 0, -1, 1, -1, 1, -1, 1, -1}; !slices.Equal(trace, want) {
		t.Fatalf("hooks ran as %v, want %v", trace, want)
	}
	if !vectorsBitEqual(paramvec.Snapshot(bare.Parameters()), paramvec.Snapshot(hooked.Parameters())) {
		t.Fatal("hooks changed what the loop trains")
	}
}
