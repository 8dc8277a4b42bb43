package sim_test

import (
	"testing"
	"time"

	"pcstall/internal/clock"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// TestSmokeRunApp drives one full app through the simulator and checks
// basic progress invariants.
func TestSmokeRunApp(t *testing.T) {
	cfg := sim.DefaultConfig(4)
	app := workload.MustBuild("comd", workload.DefaultGenConfig(cfg.NumCUs))
	g, err := sim.New(cfg, app.Kernels, app.Launches)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var sample sim.EpochSample
	epoch := clock.Time(10 * clock.Microsecond)
	var committed int64
	deadline := clock.Time(100 * clock.Millisecond)
	for !g.Finished && g.Now < deadline {
		g.RunUntil(g.Now + epoch)
		g.CollectEpoch(&sample)
		for i := range sample.CUs {
			committed += sample.CUs[i].C.Committed
		}
	}
	t.Logf("finished=%v simtime=%.1fus committed=%d wall=%v",
		g.Finished, float64(g.Now)/1e6, committed, time.Since(start))
	if !g.Finished {
		t.Fatalf("app did not finish within %dms of simulated time", deadline/clock.Millisecond)
	}
	if committed != g.TotalCommitted || committed == 0 {
		t.Fatalf("committed mismatch: epochs=%d gpu=%d", committed, g.TotalCommitted)
	}
}

// TestConfigRejectsWideCUs: the scheduler keeps one bit per SIMD and one
// per queued wavefront in 64-bit masks, so a CU wider than 64 in either
// must be refused by Validate (and so by New), not mis-simulated.
func TestConfigRejectsWideCUs(t *testing.T) {
	for _, shape := range []struct{ waves, simds int }{{65, 4}, {40, 65}, {64, 64}} {
		cfg := sim.DefaultConfig(2)
		cfg.MaxWavesPerCU = shape.waves
		cfg.SIMDsPerCU = shape.simds
		err := cfg.Validate()
		if wide := shape.waves > 64 || shape.simds > 64; wide != (err != nil) {
			t.Errorf("%d waves, %d SIMDs: Validate() = %v", shape.waves, shape.simds, err)
		}
	}
}
