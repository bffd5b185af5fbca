package framework

import (
	"math"
	"testing"

	"mamdr/internal/telemetry"
	"mamdr/internal/trace"
)

// TestWireTrainMetricsCountsAnomalies: a non-finite pass through the
// wiring every training run uses — single-process included — is counted
// once in mamdr_anomalies_total{kind="nan_loss"} and dumps the flight
// recorder once.
func TestWireTrainMetricsCountsAnomalies(t *testing.T) {
	ds := testDataset(t)
	reg := telemetry.New()
	tracer := trace.New(trace.Options{})
	tm := WireTrainMetrics(reg, ds, nil, tracer)

	rec := tm.NewEpochRecorder(testModel(t, ds).Parameters(), -1)
	rec.BeforePass()
	rec.AfterPassTC(0, math.NaN(), trace.TraceContext{})

	if got := reg.Counter("mamdr_anomalies_total", "", telemetry.L("kind", "nan_loss")).Value(); got != 1 {
		t.Fatalf(`mamdr_anomalies_total{kind="nan_loss"} = %d, want 1`, got)
	}
	if dumps := tracer.Flight().Dumps(); len(dumps) != 1 || dumps[0].Kind != "nan_loss" {
		t.Fatalf("flight recorder dumps = %+v, want one nan_loss", dumps)
	}
	if WireTrainMetrics(nil, ds, nil, nil) != nil {
		t.Fatal("a run with no registry, events or tracer got telemetry")
	}
}
