package oracle_test

import (
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/oracle"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// appRun is how many consecutive ops BenchmarkSampleNext spends on one
// app of a multi-app platform: a campaign job keeps one app's state hot
// in the host caches for its whole run.
const appRun = 4

// BenchmarkSampleNext measures the full fork-pre-execute cost of one
// oracle sampling sweep (one fork per V/f state, each pre-executing a
// 1µs epoch) on a warmed-up GPU. This is the per-epoch price every
// truth-consuming policy (ACC, ACCPC, sample-count ablations) pays. Each
// op sweeps one app; a multi-app platform moves to its next app every
// appRun ops. The 8-CU rungs are the ones BENCH_sim.json tracks for the
// CoW snapshot work; figures4 is the figures campaign's platform (4 CUs,
// scale 0.25, five apps) and cu64 a 64-CU GPU, the paper's size.
func BenchmarkSampleNext(b *testing.B) {
	platforms := []struct {
		name  string
		apps  []string
		cus   int
		scale float64
		warm  clock.Time
	}{
		{"dgemm", []string{"dgemm"}, 8, 1, 10 * clock.Microsecond},
		{"xsbench", []string{"xsbench"}, 8, 1, 10 * clock.Microsecond},
		{"figures4", []string{"comd", "hpgmg", "xsbench", "dgemm", "FwdSoft"}, 4, 0.25, 5 * clock.Microsecond},
		{"cu64", []string{"comd"}, 64, 1, 5 * clock.Microsecond},
	}
	for _, p := range platforms {
		b.Run(p.name, func(b *testing.B) {
			cfg := sim.DefaultConfig(p.cus)
			gpus := make([]*sim.GPU, len(p.apps))
			for i, app := range p.apps {
				gen := workload.DefaultGenConfig(p.cus)
				gen.Scale = p.scale
				a := workload.MustBuild(app, gen)
				g, err := sim.New(cfg, a.Kernels, a.Launches)
				if err != nil {
					b.Fatal(err)
				}
				g.RunUntil(p.warm)
				if g.Finished {
					b.Fatalf("%s finished during the %dps warm-up", app, p.warm)
				}
				gpus[i] = g
			}
			pm := power.DefaultModelFor(p.cus)
			s := &oracle.Sampler{Grid: cfg.Grid, PM: &pm}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.SampleNext(gpus[i/appRun%len(gpus)], clock.Microsecond)
			}
		})
	}
}
