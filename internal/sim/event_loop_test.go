package sim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/isa"
	"pcstall/internal/orchestrate"
	"pcstall/internal/sim"
	"pcstall/internal/wire"
	"pcstall/internal/workload"
)

// TestCollectEpochGrowRetainsSamples: reusing one EpochSample across GPUs
// of growing CU count must not let the larger collection scribble over
// per-wave records a consumer retained from the smaller one. (Regression:
// the grow path once copied the old CUEpoch headers into the larger
// array, so the new sample's WFs aliased backing arrays the consumer
// still held.)
func TestCollectEpochGrowRetainsSamples(t *testing.T) {
	build := func(cus int) *sim.GPU {
		a := workload.MustBuild("xsbench", workload.DefaultGenConfig(cus))
		g, err := sim.New(sim.DefaultConfig(cus), a.Kernels, a.Launches)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	var es sim.EpochSample
	small := build(2)
	small.RunUntil(2 * clock.Microsecond)
	small.CollectEpoch(&es)
	retained := es.CUs[0].WFs
	if len(retained) == 0 {
		t.Fatal("no resident waves in the small sample; test needs a live epoch")
	}
	snap := append([]sim.WFRecord(nil), retained...)

	big := build(8)
	big.RunUntil(2 * clock.Microsecond)
	big.CollectEpoch(&es) // grows es.CUs from 2 to 8 entries
	big.RunUntil(4 * clock.Microsecond)
	big.CollectEpoch(&es) // rewrites records in place

	if !reflect.DeepEqual(retained, snap) {
		t.Fatal("records retained from the pre-grow sample were mutated by a later CollectEpoch")
	}
}

// TestThrottledWavesWakeFIFO: waves parked on MSHR backpressure must wake
// in the order they throttled, and the whole parked span must land in
// StallPs — waking a wave that cannot issue (and re-stamping BlockedSince
// when it instantly re-throttles) used to drop the wake-to-re-throttle
// gap from the accounting. With every wave either issuing, memory-stalled,
// or waiting a handful of scheduler cycles, residency must be nearly
// fully explained by occupancy plus stall.
func TestThrottledWavesWakeFIFO(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.Mem.L1MSHRs = 4
	p := isa.NewBuilder("thr", 0).
		Load(isa.AccessPattern{Kind: isa.PatRandom, Base: 1 << 30, WorkingSet: 64 << 20, Stride: 64, Lines: 4}).
		WaitAll().
		MustBuild()
	k := isa.Kernel{Program: p, Workgroups: 1, WavesPerWG: 3}
	g, err := sim.New(cfg, []isa.Kernel{k}, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	g.RunUntil(clock.Millisecond)
	if !g.Finished {
		t.Fatal("three-wave MSHR kernel hung")
	}
	es := collect(g)
	recs := es.CUs[0].WFs
	if len(recs) != 3 {
		t.Fatalf("want 3 wave records, got %d", len(recs))
	}
	// Wave 0 fills the MSHRs; waves 1 and 2 throttle in age order and
	// must be replayed in that order, so each later wave stalls longer.
	for i := 1; i < 3; i++ {
		if recs[i].C.StallPs <= recs[i-1].C.StallPs {
			t.Fatalf("wave %d stalled %dps, wave %d stalled %dps — FIFO replay should wake older waves first",
				recs[i-1].GlobalWave, recs[i-1].C.StallPs, recs[i].GlobalWave, recs[i].C.StallPs)
		}
	}
	// Stall conservation: residency = occupancy + stall + a few cycles
	// of scheduling slack. A re-stamped BlockedSince shows up here as a
	// large unexplained gap.
	const slackPs = 64 * 590 // ~64 cycles at the slowest grid frequency
	for _, r := range recs {
		explained := r.C.OccupancyPs + r.C.StallPs
		if explained > r.ResidentPs {
			t.Fatalf("wave %d: occupancy+stall %dps exceeds residency %dps", r.GlobalWave, explained, r.ResidentPs)
		}
		if gap := r.ResidentPs - explained; gap > slackPs {
			t.Fatalf("wave %d: %dps of its %dps residency is neither occupancy nor stall — throttled time leaked from the accounting",
				r.GlobalWave, gap, r.ResidentPs)
		}
	}
}

// TestMaxCyclesBudgetMatchesLegacy: the cycle budget must measure
// simulated work, not loop iterations — leaping over a known-busy span
// still charges every skipped cycle. A budget-limited run must therefore
// trip at the simulated time and cycle count recorded from the per-cycle
// loop the event-driven one replaced.
func TestMaxCyclesBudgetMatchesLegacy(t *testing.T) {
	cfg := sim.DefaultConfig(2)
	cfg.MaxCycles = 20_000
	a := workload.MustBuild("xsbench", workload.DefaultGenConfig(2))
	g, err := sim.New(cfg, a.Kernels, a.Launches)
	if err != nil {
		t.Fatal(err)
	}
	g.RunUntil(clock.Millisecond)
	if g.Stuck == nil || g.Stuck.Kind != sim.DeadlockCycleLimit {
		t.Fatalf("budget did not trip: %v", g.Stuck)
	}
	checkGolden(t, "max_cycles.golden",
		"where a 20000-cycle budget trips on xsbench at 2 CUs run to 1ms: the watchdog's (Now, Cycles), then the GPU's",
		[]string{fmt.Sprintf("xsbench cus=2 max_cycles=%d stuck_now=%d stuck_cycles=%d now=%d cycles=%d",
			cfg.MaxCycles, g.Stuck.Now, g.Stuck.Cycles, g.Now, g.Cycles)})
}

// TestEventLoopMatchesLegacyEpochStream pins the event-driven RunUntil to
// the epoch sample streams recorded from the per-cycle loop it replaced:
// across seeds and workloads, every epoch's counters and per-wave records
// and the final finish state must digest to the recorded values.
func TestEventLoopMatchesLegacyEpochStream(t *testing.T) {
	apps, seeds := []string{"xsbench", "dgemm"}, []uint64{1, 2, 3}
	var lines []string
	for _, app := range apps {
		for _, seed := range seeds {
			t.Run(app, func(t *testing.T) {
				gen := workload.DefaultGenConfig(4)
				gen.Seed = seed
				gen.Scale = 0.25
				a := workload.MustBuild(app, gen)
				cfg := sim.DefaultConfig(4)
				cfg.Seed = seed
				g, err := sim.New(cfg, a.Kernels, a.Launches)
				if err != nil {
					t.Fatal(err)
				}
				var (
					es     sim.EpochSample
					stream []byte
					epochs int
				)
				for ; epochs < 30 && !g.Finished; epochs++ {
					g.RunUntil(clock.Time(epochs+1) * clock.Microsecond)
					g.CollectEpoch(&es)
					b, err := json.Marshal(&es)
					if err != nil {
						t.Fatal(err)
					}
					stream = append(append(stream, b...), '\n')
				}
				lines = append(lines, fmt.Sprintf("%s seed=%d epochs=%d stream=%s finished=%v now=%d cycles=%d",
					app, seed, epochs, wire.Digest(stream), g.Finished, g.Now, g.Cycles))
			})
		}
	}
	if len(lines) != len(apps)*len(seeds) {
		return // a -run filter or a failed subtest left the set partial; the file is compared whole
	}
	checkGolden(t, "epoch_stream.golden",
		"4 CUs, scale 0.25, workload and sim seeded alike, up to 30 1us epochs; stream = digest of the epochs' EpochSample JSON, one per line",
		lines)
}

// checkGolden compares lines against the data lines of testdata/name.
// The file's first line names the SimVersion it was recorded at; lines
// starting with '#' are otherwise comments. On any mismatch the test
// prints the file content the code now produces, so a deliberate change
// is re-recorded by replacing the file with it.
func checkGolden(t *testing.T, name, about string, lines []string) {
	t.Helper()
	header := "# sim-version " + orchestrate.SimVersion
	want := header + "\n# " + about + "\n" + strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; record it as:\n%s", err, want)
	}
	var got []string
	for _, l := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(l, "#") {
			got = append(got, l)
		}
	}
	if !strings.HasPrefix(string(raw), header+"\n") || !reflect.DeepEqual(got, lines) {
		t.Fatalf("%s does not match this build; if the change is deliberate, replace the file with:\n%s", path, want)
	}
}
