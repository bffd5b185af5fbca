package core

import (
	"math"
	"testing"

	"mamdr/internal/autograd"
	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// TestPoisonedWeightTripsNaNFlightRecorder closes the loop on the
// MatMul zero-skip fix at the observability layer: a non-finite
// parameter row whose matching activations are all zero used to be
// skipped entirely, so the loss stayed finite and the anomaly flight
// recorder never fired — the exact blind spot that let a poisoned
// model serve silently. With the kernel rewrite the 0×Inf product
// poisons the loss and the nan_loss watch dumps the run-up.
func TestPoisonedWeightTripsNaNFlightRecorder(t *testing.T) {
	rec := trace.NewFlightRecorder(16, "")
	watch := telemetry.NewLossWatch(rec, nil)

	// Feature vector with a dead (zero) input wired to a poisoned
	// weight row: the only path to the Inf is through 0×Inf.
	x := autograd.New(1, 2, []float64{0, 1})
	w := autograd.Param(2, 1, []float64{math.Inf(1), 0.5})
	logits := autograd.MatMul(x, w)
	loss := autograd.BCEWithLogits(logits, []float64{1})

	if !math.IsNaN(loss.Item()) {
		t.Fatalf("loss = %g, want NaN: zero-skip is masking the poisoned weight", loss.Item())
	}
	watch.Observe("taobao-poisoned", loss.Item(), nil)

	dumps := rec.Dumps()
	if len(dumps) != 1 || dumps[0].Kind != "nan_loss" {
		t.Fatalf("flight recorder dumps = %+v, want one nan_loss dump", dumps)
	}
	loss.Release()
}
