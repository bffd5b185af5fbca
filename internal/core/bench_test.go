package core

import (
	"io"
	"runtime"
	"testing"
	"time"

	"mamdr/internal/autograd/kernels"
	"mamdr/internal/data"
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

// tailShape and headShape are the datasets of mamdr-bench's train-tail
// and train-head workloads: 200 Zipf domains, most at the 24-sample
// floor, over learned 4000×16 + 2000×16 embedding tables (91 % of |θ|);
// and 13 Amazon-like domains of 10,000 interactions.
func tailShape() synth.Config {
	cfg := synth.TaobaoOnline(200, 4000, 12)
	cfg.FixedFeatures = false
	cfg.NumUsers, cfg.NumItems = 4000, 2000
	return cfg
}

func headShape() synth.Config { return synth.Amazon13(10000, 12) }

// benchDRPhase times one DR phase per iteration on a zero θ_i state, at
// the given kernels.SetThreads cap.
func benchDRPhase(b *testing.B, ds *data.Dataset, inner string, threads int) {
	defer kernels.SetThreads(0)
	kernels.SetThreads(threads)
	m := models.MustNew("mlp", models.Config{Dataset: ds, EmbDim: 16, Hidden: []int{64, 32}, Seed: 12})
	st := &State{Model: m, Shared: paramvec.Snapshot(m.Parameters())}
	for range ds.Domains {
		st.AddDomain()
	}
	fc := framework.Config{BatchSize: 64, Seed: 12, InnerOpt: inner, LR: 0.1}.WithDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DomainRegularizationPhase(st, ds, fc, EpochRNG(fc.Seed, i), DROptions{})
	}
}

// BenchmarkDRLookahead is one Domain Regularization phase — every
// target of a long-tail dataset once — on the tail shape, on one worker.
// Under sgd the lookahead runs on the rows its batches touch; under adam
// every entry can move, so the same loop runs over all of |θ| — the
// dense path measured beside the row path. Run with:
//
//	go test ./internal/core -run xxx -bench DRLookahead -benchmem
func BenchmarkDRLookahead(b *testing.B) {
	ds := synth.Generate(tailShape())
	for _, inner := range []string{"sgd", "adam"} {
		b.Run(inner, func(b *testing.B) { benchDRPhase(b, ds, inner, 1) })
	}
}

// BenchmarkDRPhase is the same phase by worker count, on the head shape
// under its workload's inner optimizer (adam) and on the tail shape under
// its own (sgd): workers=1 is the sequential loop with kernel fan-out off,
// workers=N one worker per GOMAXPROCS. Run with:
//
//	go test ./internal/core -run xxx -bench DRPhase -benchmem
func BenchmarkDRPhase(b *testing.B) {
	for _, shape := range []struct {
		name, inner string
		cfg         synth.Config
	}{{"head", "adam", headShape()}, {"tail", "sgd", tailShape()}} {
		ds := synth.Generate(shape.cfg)
		for _, w := range []struct {
			name    string
			threads int
		}{{"workers=1", 1}, {"workers=2", 2}, {"workers=N", runtime.GOMAXPROCS(0)}} {
			b.Run(shape.name+"/"+w.name, func(b *testing.B) { benchDRPhase(b, ds, shape.inner, w.threads) })
		}
	}
}
