package framework

import (
	"context"
	"runtime"
	"testing"

	"mamdr/internal/data"
	"mamdr/internal/models"
	"mamdr/internal/optim"
	"mamdr/internal/paramvec"
	"mamdr/internal/synth"
)

// TestPerDomainPredictorCopiesNoVector: scoring a batch binds the
// domain's vector instead of copying θ, so one Predict over a model
// with a 10,000-row table allocates well under one copy of θ.
func TestPerDomainPredictorCopiesNoVector(t *testing.T) {
	cfg := synth.Amazon6(600, 1)
	cfg.NumUsers = 10000
	ds := synth.Generate(cfg)
	m := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 8, Hidden: []int{16}, Seed: 1})
	base := paramvec.Snapshot(m.Parameters())
	p := &PerDomainPredictor{Model: m, Vectors: make([]paramvec.Vector, ds.NumDomains())}
	for d := range p.Vectors {
		p.Vectors[d] = base.Clone()
	}
	b := ds.FullBatch(0, data.Test)
	p.Predict(b)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		p.Predict(b)
	}
	runtime.ReadMemStats(&after)
	theta := 8 * base.Len()
	if perCall := int(after.TotalAlloc-before.TotalAlloc) / runs; perCall >= theta/4 {
		t.Fatalf("one Predict allocates %d bytes; θ is %d bytes", perCall, theta)
	}
}

// stepAllocCeiling is what one train step allocated when the test was
// written (61 under sgd and adam alike, amd64 with AVX2).
const stepAllocCeiling = 61

// TestTrainStepAllocCeiling pins the allocations of one train step (an
// mlp on amazon-6, a 64-row batch, after five warm-up steps) under sgd
// and adam: the forward, backward and update run on pooled buffers.
func TestTrainStepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	ds := synth.Generate(synth.Amazon6(3000, 1))
	b := ds.Batches(0, data.Train, 64, nil)[0]
	for _, name := range []string{"sgd", "adam"} {
		m := models.MustNew("mlp", models.Config{Dataset: ds, Seed: 1})
		s, opt := NewStepper(m), optim.New(name, 0.001)
		for i := 0; i < 5; i++ {
			s.Step(context.Background(), b, opt)
		}
		if got := testing.AllocsPerRun(20, func() { s.Step(context.Background(), b, opt) }); got > stepAllocCeiling {
			t.Errorf("%s: %.0f allocations per train step, ceiling %d", name, got, stepAllocCeiling)
		}
	}
}
