package oracle

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/isa"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// TestParallelSampleNextMatchesSerial: SampleNext fans its forks out over
// GOMAXPROCS goroutines, and the Truth must not depend on how many. A
// serial sweep (GOMAXPROCS 1) and parallel sweeps (2, 4) over the same
// parent trajectory must agree exactly — I, E and every per-wavefront
// entry — with and without per-wavefront collection, for full sampling
// and for the interpolating three-sample ablation. Reusing one Sampler
// across several epochs also exercises fork recycling.
func TestParallelSampleNextMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const cus, epochs = 4, 3
	pm := power.DefaultModelFor(cus)
	for _, app := range []string{"dgemm", "xsbench"} {
		for _, wf := range []bool{false, true} {
			for _, samples := range []int{0, 3} {
				t.Run(fmt.Sprintf("%s/wf=%v/samples=%d", app, wf, samples), func(t *testing.T) {
					sweep := func(procs int) []*Truth {
						runtime.GOMAXPROCS(procs)
						cfg := sim.DefaultConfig(cus)
						a := workload.MustBuild(app, workload.DefaultGenConfig(cus))
						g, err := sim.New(cfg, a.Kernels, a.Launches)
						if err != nil {
							t.Fatal(err)
						}
						s := &Sampler{Grid: cfg.Grid, PM: &pm, CollectWF: wf, Samples: samples}
						var out []*Truth
						for e := 0; e < epochs; e++ {
							g.RunUntil(g.Now + 4*clock.Microsecond)
							out = append(out, s.SampleNext(g, clock.Microsecond))
						}
						return out
					}
					serial := sweep(1)
					for _, procs := range []int{2, 4} {
						par := sweep(procs)
						for e := range serial {
							if !reflect.DeepEqual(serial[e], par[e]) {
								t.Fatalf("epoch %d: Truth at GOMAXPROCS=%d differs from the serial sweep", e, procs)
							}
						}
					}
					if wf && len(serial[0].WF[0]) == 0 {
						t.Fatal("no per-wavefront truth collected")
					}
				})
			}
		}
	}
}

// TestSampleNextPanicReachesCaller: a fork that panics on a worker
// goroutine must not crash the process; the panic is re-raised on the
// goroutine that called SampleNext (where job runners recover it), after
// every worker has stopped.
func TestSampleNextPanicReachesCaller(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	// Every load falls beyond the cache model's address limit, so each
	// fork panics on its first L1 probe.
	p := isa.NewBuilder("far", 0).
		Loop(1000, 0).
		Load(isa.AccessPattern{Kind: isa.PatStream, Base: 1 << 40, WorkingSet: 1 << 20, Stride: 64, Lines: 1}).
		WaitAll().
		EndLoop().
		MustBuild()
	g, err := sim.New(sim.DefaultConfig(2), []isa.Kernel{{Program: p, Workgroups: 2, WavesPerWG: 4}}, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	pm := power.DefaultModelFor(2)
	// Repeat so that, were a worker's panic to escape, it would crash
	// the test binary while a later sweep runs.
	for i := 0; i < 100; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("SampleNext returned normally; want the forks' panic")
				}
			}()
			sampler(&pm, false).SampleNext(g, clock.Microsecond)
		}()
	}
}
