package core

import (
	"io"
	"testing"
	"time"

	"mamdr/internal/framework"
	"mamdr/internal/models"
	"mamdr/internal/obsv"
	"mamdr/internal/paramvec"
	"mamdr/internal/synth"
	"mamdr/internal/telemetry"
)

// BenchmarkTelemetryOverhead measures the full MAMDR training loop bare
// versus with a registry and event log attached (per-domain gauges,
// step timing histograms, parameter snapshots for the gradient-conflict
// cosines, one JSONL event per epoch). The instrumented/bare ratio is
// the telemetry tax; the acceptance budget is <5%. Run with:
//
//	go test ./internal/core -bench TelemetryOverhead -benchtime 10x
func BenchmarkTelemetryOverhead(b *testing.B) {
	cfg := synth.Config{
		Name: "telemetry-bench", Seed: 31, ConflictStrength: 0.8,
		Domains: []synth.DomainSpec{
			{Name: "books", Samples: 1200, CTRRatio: 0.3},
			{Name: "games", Samples: 800, CTRRatio: 0.4},
			{Name: "toys", Samples: 600, CTRRatio: 0.35},
			{Name: "tools", Samples: 400, CTRRatio: 0.25},
		},
	}
	run := func(b *testing.B, tm *framework.TrainMetrics) {
		ds := synth.Generate(cfg)
		for i := 0; i < b.N; i++ {
			m := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 16, Hidden: []int{32}, Seed: 5})
			framework.MustNew("mamdr").Fit(m, ds, framework.Config{
				Epochs: 2, BatchSize: 64, Seed: 9, Telemetry: tm,
			})
		}
	}

	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("instrumented", func(b *testing.B) {
		ds := synth.Generate(cfg)
		tm := framework.NewTrainMetrics(telemetry.New(), ds, telemetry.NewEventLog(io.Discard))
		run(b, tm)
	})
	// Federation enabled: the same instrumented loop while a background
	// scraper snapshots and federates the live registry every 5ms — far
	// more often than mamdr-obs's default 5s cadence — so the measured
	// ratio bounds the federation tax from above. Budget stays <5%.
	b.Run("federated", func(b *testing.B) {
		ds := synth.Generate(cfg)
		reg := telemetry.New()
		tm := framework.NewTrainMetrics(reg, ds, telemetry.NewEventLog(io.Discard))
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					snap := reg.Snapshot()
					snap.Role, snap.Instance = "trainer", "bench"
					if _, err := obsv.Federate([]telemetry.RegistrySnapshot{snap}); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
		run(b, tm)
		close(stop)
		<-done
	})
}

// BenchmarkDRLookahead is one Domain Regularization phase — every
// target of a long-tail dataset once — on the shape of mamdr-bench's
// train-tail workload: 200 Zipf domains, most at the 24-sample floor,
// learned 4000×16 + 2000×16 embedding tables (91 % of |θ|). Under sgd
// the lookahead runs on the rows its batches touch; under adam every
// entry can move, so the same loop runs over all of |θ| — the dense path
// measured beside the row path. Run with:
//
//	go test ./internal/core -run xxx -bench DRLookahead -benchmem
func BenchmarkDRLookahead(b *testing.B) {
	cfg := synth.TaobaoOnline(200, 4000, 12)
	cfg.FixedFeatures = false
	cfg.NumUsers, cfg.NumItems = 4000, 2000
	ds := synth.Generate(cfg)
	for _, inner := range []string{"sgd", "adam"} {
		b.Run(inner, func(b *testing.B) {
			m := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 16, Hidden: []int{64, 32}, Seed: 12})
			st := &State{Model: m, Shared: paramvec.Snapshot(m.Parameters())}
			for range ds.Domains {
				st.AddDomain()
			}
			fc := framework.Config{BatchSize: 64, Seed: 12, InnerOpt: inner, LR: 0.1}.WithDefaults()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := EpochRNG(fc.Seed, i)
				for target := range ds.Domains {
					DomainRegularization(st, ds, target, fc, rng)
				}
			}
		})
	}
}
