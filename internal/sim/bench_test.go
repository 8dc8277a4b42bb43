package sim_test

import (
	"runtime"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// Microbenchmarks for the simulator substrate itself (simulation rate,
// snapshot cost). The paper-figure benchmarks live at the repository
// root.

func benchGPU(b *testing.B, app string, cus int) *sim.GPU {
	b.Helper()
	cfg := sim.DefaultConfig(cus)
	a := workload.MustBuild(app, workload.DefaultGenConfig(cus))
	g, err := sim.New(cfg, a.Kernels, a.Launches)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSimulate measures simulation throughput: wall time per 50µs of
// simulated time on an 8-CU GPU.
func BenchmarkSimulate(b *testing.B) {
	for _, app := range []string{"comd", "xsbench", "hpgmg", "dgemm"} {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := benchGPU(b, app, 8)
				g.RunUntil(50 * clock.Microsecond)
			}
		})
	}
}

// BenchmarkClone measures the snapshot cost the fork-pre-execute oracle
// pays per sample.
func BenchmarkClone(b *testing.B) {
	g := benchGPU(b, "comd", 8)
	g.RunUntil(20 * clock.Microsecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Clone()
	}
}

// BenchmarkEpochCollect measures the per-boundary counter collection.
func BenchmarkEpochCollect(b *testing.B) {
	g := benchGPU(b, "comd", 8)
	var es sim.EpochSample
	for i := 0; i < b.N; i++ {
		g.RunUntil(g.Now + clock.Microsecond)
		g.CollectEpoch(&es)
		if g.Finished {
			b.StopTimer()
			g = benchGPU(b, "comd", 8)
			b.StartTimer()
		}
	}
}

// hotPathPlatforms are the platforms the epoch hot path is measured at:
// the 8-CU single-app rungs, the figures campaign's platform (4 CUs,
// scale 0.25, five apps taken in turn), and a 64-CU GPU, the paper's
// size.
var hotPathPlatforms = []struct {
	name  string
	apps  []string
	cus   int
	scale float64
}{
	{"comd", []string{"comd"}, 8, 1},
	{"xsbench", []string{"xsbench"}, 8, 1},
	{"figures4", []string{"comd", "hpgmg", "xsbench", "dgemm", "FwdSoft"}, 4, 0.25},
	{"cu64", []string{"comd"}, 64, 1},
}

// appRun is how many consecutive ops a multi-app benchmark spends on one
// app before moving to the next. A campaign job simulates one app from
// start to finish, so its simulator state stays hot in the host caches;
// switching apps every op would instead measure cache refills.
const appRun = 8

// BenchmarkEpochHotPath measures one steady-state epoch step — RunUntil,
// CollectEpoch, and the per-domain ActivePCs lookup a PC-based policy
// performs. Each op steps one app; a multi-app platform moves to its next
// app every appRun ops. Before the clock starts every app runs up to 64
// epochs, so its reused buffers reach the sizes its run needs. An app
// that finishes restarts off the clock: a fresh GPU is cloned into the
// finished one, keeping its grown buffers, and then released, so the
// restarted GPU owns its cache tag arrays outright, like a campaign's
// parent GPU (the figures4 apps finish within a few dozen epochs). The
// ci.sh allocation gate pins allocs/op at zero: nothing on this path may
// allocate once buffers have reached steady state.
func BenchmarkEpochHotPath(b *testing.B) {
	for _, p := range hotPathPlatforms {
		b.Run(p.name, func(b *testing.B) {
			var es sim.EpochSample
			var pcs []sim.WavePC
			step := func(g *sim.GPU) {
				g.RunUntil(g.Now + clock.Microsecond)
				g.CollectEpoch(&es)
				for d := 0; d < g.Cfg.Domains.NumDomains(); d++ {
					pcs = g.ActivePCs(d, pcs[:0])
				}
			}
			cfg := sim.DefaultConfig(p.cus)
			gen := workload.DefaultGenConfig(p.cus)
			gen.Scale = p.scale
			apps := make([]workload.App, len(p.apps))
			gpus := make([]*sim.GPU, len(p.apps))
			restart := func(j int) {
				fresh, err := sim.New(cfg, apps[j].Kernels, apps[j].Launches)
				if err != nil {
					b.Fatal(err)
				}
				step(fresh)
				if gpus[j] == nil {
					gpus[j] = fresh
					return
				}
				fresh.CloneInto(gpus[j])
				fresh.Release()
			}
			for j, name := range p.apps {
				apps[j] = workload.MustBuild(name, gen)
				restart(j)
				for e := 0; e < 64 && !gpus[j].Finished; e++ {
					step(gpus[j])
				}
				if gpus[j].Finished {
					restart(j)
				}
			}
			runtime.GC() // leave the setup's garbage out of the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i / appRun % len(gpus)
				step(gpus[j])
				if gpus[j].Finished {
					b.StopTimer()
					restart(j)
					b.StartTimer()
				}
			}
		})
	}
}
