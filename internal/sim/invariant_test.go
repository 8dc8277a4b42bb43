package sim_test

import (
	"fmt"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// TestEpochAccountingInvariants: stall time never exceeds residency. For
// every wavefront record of every epoch sample, the time it spent blocked
// on memory plus the time it waited at barriers fits in the time it was
// resident in that epoch; and no CU can be memory-blocked for longer than
// the epoch itself. The runs cover the workloads and platforms the sim
// and dvfs goldens pin, change domain frequencies every few epochs (so
// transition stalls and regridded ticks are exercised), and also check
// the sample of a one-epoch fork at a different frequency each epoch, as
// the oracle takes them.
func TestEpochAccountingInvariants(t *testing.T) {
	for _, p := range []struct {
		cus   int
		scale float64
	}{{4, 0.25}, {2, 0.3}} {
		for _, app := range []string{"comd", "xsbench", "dgemm"} {
			t.Run(fmt.Sprintf("%s/%dcu", app, p.cus), func(t *testing.T) {
				gen := workload.DefaultGenConfig(p.cus)
				gen.Scale = p.scale
				a := workload.MustBuild(app, gen)
				cfg := sim.DefaultConfig(p.cus)
				g, err := sim.New(cfg, a.Kernels, a.Launches)
				if err != nil {
					t.Fatal(err)
				}
				var es, fs sim.EpochSample
				var fork *sim.GPU
				states := cfg.Grid.Count()
				for e := 0; !g.Finished && e < 200; e++ {
					fork = g.CloneInto(fork)
					fork.ResetEpoch()
					for d := range fork.Domains {
						fork.SetDomainFreq(d, cfg.Grid.State((e+d)%states), clock.TransitionLatency(clock.Microsecond))
					}
					fork.RunUntil(fork.Now + clock.Microsecond)
					fork.CollectEpoch(&fs)
					checkEpochAccounting(t, fmt.Sprintf("epoch %d fork", e), &fs)

					if e%3 == 2 {
						for d := range g.Domains {
							g.SetDomainFreq(d, cfg.Grid.State((e/3+2*d)%states), clock.TransitionLatency(clock.Microsecond))
						}
					}
					g.RunUntil(g.Now + clock.Microsecond)
					g.CollectEpoch(&es)
					checkEpochAccounting(t, fmt.Sprintf("epoch %d", e), &es)
				}
				if !g.Finished {
					t.Fatal("run did not finish within 200 epochs")
				}
			})
		}
	}
}

func checkEpochAccounting(t *testing.T, where string, es *sim.EpochSample) {
	t.Helper()
	span := es.End - es.Start
	for _, ce := range es.CUs {
		if ce.C.MemBlockedPs > span {
			t.Fatalf("%s: CU %d memory-blocked %dps in a %dps epoch", where, ce.CU, ce.C.MemBlockedPs, span)
		}
		for _, r := range ce.WFs {
			if r.ResidentPs > span {
				t.Fatalf("%s: CU %d wave %d resident %dps in a %dps epoch", where, ce.CU, r.GlobalWave, r.ResidentPs, span)
			}
			if blocked := r.C.StallPs + r.C.BarrierPs; blocked > r.ResidentPs {
				t.Fatalf("%s: CU %d wave %d stalled %dps and waited %dps at barriers, resident only %dps",
					where, ce.CU, r.GlobalWave, r.C.StallPs, r.C.BarrierPs, r.ResidentPs)
			}
		}
	}
}
