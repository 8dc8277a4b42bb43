package sim_test

import (
	"reflect"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

func mustGPU(t *testing.T, appName string, cus int) *sim.GPU {
	t.Helper()
	cfg := sim.DefaultConfig(cus)
	app := workload.MustBuild(appName, workload.DefaultGenConfig(cus))
	g, err := sim.New(cfg, app.Kernels, app.Launches)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCloneDeterminism is the oracle's core requirement: a clone must
// execute identically to its parent when driven by the same frequency
// schedule.
func TestCloneDeterminism(t *testing.T) {
	for _, name := range []string{"comd", "xsbench", "dgemm", "quickS"} {
		t.Run(name, func(t *testing.T) {
			g := mustGPU(t, name, 2)
			g.RunUntil(30 * clock.Microsecond)

			c := g.Clone()
			limit := g.Now + 40*clock.Microsecond
			g.RunUntil(limit)
			c.RunUntil(limit)

			if g.Now != c.Now {
				t.Fatalf("Now diverged: %d vs %d", g.Now, c.Now)
			}
			if g.TotalCommitted != c.TotalCommitted {
				t.Fatalf("TotalCommitted diverged: %d vs %d", g.TotalCommitted, c.TotalCommitted)
			}
			if g.Finished != c.Finished {
				t.Fatalf("Finished diverged: %v vs %v", g.Finished, c.Finished)
			}
			var a, b sim.EpochSample
			g.CollectEpoch(&a)
			c.CollectEpoch(&b)
			for i := range a.CUs {
				if a.CUs[i].C != b.CUs[i].C {
					t.Fatalf("CU %d counters diverged:\n%+v\n%+v", i, a.CUs[i].C, b.CUs[i].C)
				}
				if len(a.CUs[i].WFs) != len(b.CUs[i].WFs) {
					t.Fatalf("CU %d wavefront record count diverged", i)
				}
				for j := range a.CUs[i].WFs {
					if a.CUs[i].WFs[j] != b.CUs[i].WFs[j] {
						t.Fatalf("CU %d WF %d diverged:\n%+v\n%+v", i, j, a.CUs[i].WFs[j], b.CUs[i].WFs[j])
					}
				}
			}
		})
	}
}

// TestCloneIsolation verifies that running a clone does not perturb the
// parent.
func TestCloneIsolation(t *testing.T) {
	g := mustGPU(t, "comd", 2)
	g.RunUntil(20 * clock.Microsecond)
	before := g.TotalCommitted
	now := g.Now

	c := g.Clone()
	c.SetDomainFreq(0, 2200, clock.TransitionLatency(clock.Microsecond))
	c.RunUntil(c.Now + 50*clock.Microsecond)

	if g.TotalCommitted != before || g.Now != now {
		t.Fatalf("parent perturbed by clone run: committed %d->%d now %d->%d",
			before, g.TotalCommitted, now, g.Now)
	}
	g.RunUntil(g.Now + clock.Microsecond)
	if g.TotalCommitted <= before {
		t.Fatal("parent stopped making progress after clone ran")
	}
}

// TestFrequencyScalesComputeBoundWork checks the physical premise of the
// whole paper: a compute-bound workload commits more instructions per
// fixed-time epoch at a higher frequency, while a memory-bound one barely
// changes.
func TestFrequencyScalesComputeBoundWork(t *testing.T) {
	rate := func(name string, f clock.Freq) float64 {
		cfg := sim.DefaultConfig(2)
		cfg.InitFreq = f
		app := workload.MustBuild(name, workload.DefaultGenConfig(2))
		g, err := sim.New(cfg, app.Kernels, app.Launches)
		if err != nil {
			t.Fatal(err)
		}
		g.RunUntil(100 * clock.Microsecond) // apps may finish earlier
		return float64(g.TotalCommitted) / float64(g.Now)
	}

	dgemmGain := rate("dgemm", 2200) / rate("dgemm", 1300)
	xsGain := rate("xsbench", 2200) / rate("xsbench", 1300)
	t.Logf("dgemm gain %.3f, xsbench gain %.3f (freq ratio %.3f)", dgemmGain, xsGain, 2200.0/1300.0)

	if dgemmGain < 1.3 {
		t.Errorf("dgemm (compute-bound) gained only %.3f from 1.3->2.2 GHz", dgemmGain)
	}
	if xsGain > 1.25 {
		t.Errorf("xsbench (memory-bound) gained %.3f from 1.3->2.2 GHz; expected near-flat", xsGain)
	}
	if xsGain >= dgemmGain {
		t.Errorf("memory-bound app scaled more than compute-bound app (%.3f >= %.3f)", xsGain, dgemmGain)
	}
}

// liveQueued is the memory system's queued plus in-flight request count —
// the live length of the queues and rings a clone copies.
func liveQueued(g *sim.GPU) int { return g.Msys.QueueDepth() + g.Msys.InFlight() }

// TestCloneIntoReusedFork: the oracle recycles a Released fork as the
// destination of the next CloneInto. Re-cloning into it from later parent
// states — whose queue and ring lengths have grown and shrunk relative to
// what the fork last held — must yield a fork that runs exactly like a
// fresh Clone, and must leave the parent running exactly like an untouched
// twin.
func TestCloneIntoReusedFork(t *testing.T) {
	var grew, shrank bool
	for _, name := range []string{"xsbench", "comd", "dgemm"} {
		t.Run(name, func(t *testing.T) {
			const cus = 4
			g := mustGPU(t, name, cus)
			twin := mustGPU(t, name, cus) // driven identically, never forked
			advance := func(d clock.Time) {
				g.RunUntil(g.Now + d)
				twin.RunUntil(twin.Now + d)
			}
			advance(10 * clock.Microsecond)

			fork := g.Clone()
			fork.SetDomainFreq(0, 2200, 0)
			fork.RunUntil(fork.Now + 20*clock.Microsecond)
			held := liveQueued(fork)
			fork.Release()

			for i, step := range []clock.Time{3, 9, 1, 14, 2, 6} {
				advance(step * clock.Microsecond)
				live := liveQueued(g)
				grew = grew || live > held
				shrank = shrank || live < held
				reused := g.CloneInto(fork)
				if reused != fork {
					t.Fatal("CloneInto did not reuse its destination")
				}
				fresh := g.Clone()
				var want, got sim.EpochSample
				for _, c := range []*sim.GPU{fresh, reused} {
					c.ResetEpoch()
					for d := 0; d < cus; d++ {
						c.SetDomainFreq(d, g.Cfg.Grid.State((d+i)%g.Cfg.Grid.Count()), 0)
					}
					c.RunUntil(c.Now + clock.Microsecond)
				}
				fresh.CollectEpoch(&want)
				reused.CollectEpoch(&got)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d: epoch on the reused fork diverged from a fresh clone", i)
				}
				held = liveQueued(reused)
				fresh.Release()
				reused.Release()
				if g.Now != twin.Now || g.TotalCommitted != twin.TotalCommitted {
					t.Fatalf("step %d: forking perturbed the parent", i)
				}
			}
			// The parent keeps running exactly like its twin.
			advance(5 * clock.Microsecond)
			var a, b sim.EpochSample
			g.CollectEpoch(&a)
			twin.CollectEpoch(&b)
			if g.TotalCommitted != twin.TotalCommitted || !reflect.DeepEqual(a, b) {
				t.Fatal("parent diverged from its never-forked twin after recycled forks ran")
			}
		})
	}
	if !grew || !shrank {
		t.Fatalf("re-clones never both grew and shrank the live queue length (grew %v, shrank %v)", grew, shrank)
	}
}
