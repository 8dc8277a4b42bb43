package dvfs_test

import (
	"math"
	"strings"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/trace"
	"pcstall/internal/workload"
)

func freshGPU(t *testing.T, app string, cus int) *sim.GPU {
	t.Helper()
	cfg := sim.DefaultConfig(cus)
	gen := workload.DefaultGenConfig(cus)
	gen.Scale = 0.25
	a := workload.MustBuild(app, gen)
	g, err := sim.New(cfg, a.Kernels, a.Launches)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunConfigValidation(t *testing.T) {
	pm := power.DefaultModelFor(2)
	g := freshGPU(t, "comd", 2)
	if _, err := dvfs.Run(g, &dvfs.Static{F: 1700}, dvfs.RunConfig{Obj: dvfs.ED2P, PM: &pm}); err == nil {
		t.Error("zero epoch accepted")
	}
	if _, err := dvfs.Run(g, &dvfs.Static{F: 1700}, dvfs.RunConfig{Epoch: clock.Microsecond}); err == nil {
		t.Error("missing objective/power model accepted")
	}
}

func TestTruncationFlag(t *testing.T) {
	pm := power.DefaultModelFor(2)
	g := freshGPU(t, "comd", 2)
	res, err := dvfs.Run(g, &dvfs.Static{F: 1700}, dvfs.RunConfig{
		Epoch: clock.Microsecond, Obj: dvfs.ED2P, PM: &pm,
		MaxTime: 3 * clock.Microsecond, // far too short for the app
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("time-capped run not marked truncated")
	}
	if res.Epochs != 3 {
		t.Fatalf("%d epochs before a 3us cap", res.Epochs)
	}
}

// TestRunInvariants is the run-level conservation pass over every
// design, read through the collecting trace recorder: one event per
// epoch, per-epoch committed instructions summing exactly to the run
// total, per-epoch domain energy plus uncore and transition energy
// summing to the run's energy, and residency summing to 1.
func TestRunInvariants(t *testing.T) {
	var names []string
	for _, n := range core.DesignNames() {
		if !strings.Contains(n, "<") { // skip the STATIC-<MHz> template
			names = append(names, n)
		}
	}
	names = append(names, "STATIC-1300")
	pm := power.DefaultModelFor(2)
	for _, app := range []string{"comd", "xsbench"} {
		for _, name := range names {
			d, err := core.DesignByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := freshGPU(t, app, 2)
			var events trace.Collector
			res, err := dvfs.Run(g, d.New(), dvfs.RunConfig{
				Epoch: clock.Microsecond, Obj: dvfs.ED2P, PM: &pm, Trace: &events,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", app, name, err)
			}
			evs := events.Events()
			if len(evs) != res.Epochs {
				t.Fatalf("%s/%s: %d events for %d epochs", app, name, len(evs), res.Epochs)
			}
			var committed, energy float64
			for i, e := range evs {
				if e.Index != i || e.EndPs <= e.StartPs {
					t.Fatalf("%s/%s: event %d is epoch %d spanning [%d, %d]", app, name, i, e.Index, e.StartPs, e.EndPs)
				}
				for _, de := range e.Domains {
					committed += de.ActualI
					energy += de.EnergyJ
				}
			}
			if int64(committed) != res.Totals.Committed {
				t.Fatalf("%s/%s: per-epoch committed sums to %d, run total %d", app, name, int64(committed), res.Totals.Committed)
			}
			energy += pm.UncoreEnergyJ(g.Now) + pm.TransitionEnergyJ(res.Transitions)
			if gap := math.Abs(energy-res.Totals.EnergyJ) / res.Totals.EnergyJ; gap > 1e-12 {
				t.Fatalf("%s/%s: per-epoch energy %g vs run total %g (relative gap %g)", app, name, energy, res.Totals.EnergyJ, gap)
			}
			var residency float64
			for _, r := range res.Residency {
				residency += r
			}
			if math.Abs(residency-1) > 1e-12 {
				t.Fatalf("%s/%s: residency sums to %v", app, name, residency)
			}
		}
	}
}

func TestTransitionsOnlyOnFrequencyChange(t *testing.T) {
	pm := power.DefaultModelFor(2)
	g := freshGPU(t, "comd", 2)
	res, err := dvfs.Run(g, &dvfs.Static{F: 1700}, dvfs.RunConfig{
		Epoch: clock.Microsecond, Obj: dvfs.ED2P, PM: &pm,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Boot frequency is 1.7 GHz = the static choice: zero transitions.
	if res.Transitions != 0 {
		t.Fatalf("static-at-boot-frequency run made %d transitions", res.Transitions)
	}
}

func TestOracleSampleCountPlumbed(t *testing.T) {
	pm := power.DefaultModelFor(2)
	d, err := core.DesignByName("ORACLE")
	if err != nil {
		t.Fatal(err)
	}
	// A 2-sample oracle must still run to completion and stay plausible.
	g := freshGPU(t, "comd", 2)
	res, err := dvfs.Run(g, d.New(), dvfs.RunConfig{
		Epoch: clock.Microsecond, Obj: dvfs.ED2P, PM: &pm, OracleSamples: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.AccuracyN == 0 {
		t.Fatalf("reduced-sample oracle run degenerate: %+v", res)
	}
}

func TestEnergyPositiveAndDecomposed(t *testing.T) {
	pm := power.DefaultModelFor(2)
	g := freshGPU(t, "comd", 2)
	res, err := dvfs.Run(g, &dvfs.Static{F: 1700}, dvfs.RunConfig{
		Epoch: clock.Microsecond, Obj: dvfs.ED2P, PM: &pm,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Total energy must at least include the uncore floor for the run's
	// duration.
	floor := pm.UncoreEnergyJ(clock.Time(res.Totals.TimeS * 1e12))
	if res.Totals.EnergyJ <= floor {
		t.Fatalf("energy %g below uncore floor %g", res.Totals.EnergyJ, floor)
	}
}

func TestPolicyNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range core.Designs() {
		p := d.New()
		if seen[p.Name()] {
			t.Fatalf("duplicate policy name %s", p.Name())
		}
		seen[p.Name()] = true
		// Reset must be callable on a fresh policy.
		p.Reset()
	}
}
