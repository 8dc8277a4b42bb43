package dvfs_test

import (
	"runtime"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// The job platform of the allocation benchmarks: the fleet campaign's
// (2 CUs, scale 0.5, 1µs epochs, one CU per domain, seed 1).
const (
	jobCUs   = 2
	jobScale = 0.5
	jobSeed  = 1
)

// buildJobGPU builds a job's GPU the way a campaign worker does: the
// workload and the simulator both from scalar parameters.
func buildJobGPU(app string, scale float64) func() (*sim.GPU, error) {
	return func() (*sim.GPU, error) {
		cfg := sim.DefaultConfig(jobCUs)
		cfg.Seed = jobSeed
		gen := workload.DefaultGenConfig(jobCUs)
		gen.Scale = scale
		gen.Seed = jobSeed + 6
		a := workload.MustBuild(app, gen)
		return sim.New(cfg, a.Kernels, a.Launches)
	}
}

// warmGate wraps a policy and starts the benchmark timer at its warm-th
// decision, so a run's set-up and first epochs — while its buffers and
// tables grow — stay off the clock.
type warmGate struct {
	dvfs.Policy
	b       *testing.B
	warm, n int
}

func (w *warmGate) Decide(ctx *dvfs.Context, elapsed *sim.EpochSample, obj dvfs.Objective, pred [][]float64, choice []int) {
	if w.n == w.warm {
		w.b.StartTimer()
	}
	w.n++
	w.Policy.Decide(ctx, elapsed, obj, pred, choice)
}

// BenchmarkRunEpoch measures steady-state dvfs.Run epochs: each op is one
// epoch of a no-truth design (sim, policy decision and power accounting)
// after the run's first 32 epochs. A run that ends before b.N epochs are
// measured is followed by another, its build and warm-up off the clock.
// The ci.sh allocation gate pins allocs/op at zero: no steady-state
// epoch may allocate.
func BenchmarkRunEpoch(b *testing.B) {
	const warm = 32
	pm := power.DefaultModelFor(jobCUs)
	for _, design := range []string{"STATIC-1700", "CRISP", "PCSTALL"} {
		b.Run(design, func(b *testing.B) {
			d, err := core.DesignByName(design)
			if err != nil {
				b.Fatal(err)
			}
			build := buildJobGPU("comd", 4)
			b.ReportAllocs()
			b.StopTimer()
			for done := 0; done < b.N; {
				g, err := build()
				if err != nil {
					b.Fatal(err)
				}
				res, err := dvfs.Run(g, &warmGate{Policy: d.New(), b: b, warm: warm}, dvfs.RunConfig{
					Epoch:   clock.Microsecond,
					Obj:     dvfs.ED2P,
					PM:      &pm,
					MaxTime: clock.Time(warm+b.N-done) * clock.Microsecond,
				})
				b.StopTimer()
				g.Release()
				if err != nil {
					b.Fatal(err)
				}
				if res.Epochs <= warm {
					b.Fatalf("run ended after %d epochs, within the warm-up", res.Epochs)
				}
				done += res.Epochs - warm
			}
		})
	}
}

// BenchmarkRunJob measures the whole job lifecycle a campaign worker
// pays per job: build the workload and the GPU, run PCSTALL to the end
// through dvfs.RunJob, and hand the GPU's cache arrays back to the pools.
// Jobs go round-robin over the 16 apps after one warm-up pass. It reports
// GC cycles per 64 jobs beside B/op; the ci.sh gate bounds B/op, which a
// job that leaves its arrays to the garbage collector roughly doubles.
func BenchmarkRunJob(b *testing.B) {
	apps := workload.Names()
	pm := power.DefaultModelFor(jobCUs)
	d, err := core.DesignByName("PCSTALL")
	if err != nil {
		b.Fatal(err)
	}
	cfg := dvfs.RunConfig{Epoch: clock.Microsecond, Obj: dvfs.ED2P, PM: &pm}
	job := func(i int) {
		if _, err := dvfs.RunJob(buildJobGPU(apps[i%len(apps)], jobScale), d.New, cfg); err != nil {
			b.Fatal(err)
		}
	}
	for i := range apps {
		job(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)*64/float64(b.N), "GCs/64jobs")
}
