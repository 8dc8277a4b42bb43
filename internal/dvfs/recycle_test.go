package dvfs_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// dirtyJob is an unrelated job run only to leave written cache arrays in
// the pools: cancel cancels it once its fourth epoch completes, and
// maxCycles > 0 stops it stuck on its cycle budget.
type dirtyJob struct {
	app, design string
	cus         int
	cancel      bool
	maxCycles   int64
}

var dirtyJobs = []dirtyJob{
	{app: "lulesh", design: "PCSTALL", cus: 2},
	{app: "dgemm", design: "CRISP", cus: 4},
	{app: "hacc", design: "STATIC-2200", cus: 8},
	{app: "minife", design: "ORACLE", cus: 4},
	{app: "hpgmg", design: "PCSTALL", cus: 2, cancel: true},
	{app: "pennant", design: "PCSTALL", cus: 4, maxCycles: 3000},
}

// runDirty runs j through dvfs.RunJob and checks it ended as intended.
func runDirty(t *testing.T, j dirtyJob) {
	t.Helper()
	d, err := core.DesignByName(j.design)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*sim.GPU, error) {
		gen := workload.DefaultGenConfig(j.cus)
		gen.Scale = 0.2
		a := workload.MustBuild(j.app, gen)
		return sim.New(sim.DefaultConfig(j.cus), a.Kernels, a.Launches)
	}
	pm := power.DefaultModelFor(j.cus)
	rc := dvfs.RunConfig{Epoch: clock.Microsecond, Obj: dvfs.ED2P, PM: &pm, MaxTime: 40 * clock.Microsecond, MaxCycles: j.maxCycles}
	if j.cancel {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rc.Ctx = ctx
		rc.Trace = &cancelAtEpoch{index: 3, cancel: cancel}
	}
	_, err = dvfs.RunJob(build, d.New, rc)
	var de *sim.DeadlockError
	switch {
	case j.cancel:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want a cancelled run, got %v", j.app, err)
		}
	case j.maxCycles > 0:
		if !errors.As(err, &de) {
			t.Fatalf("%s: want a stuck run, got %v", j.app, err)
		}
	case err != nil:
		t.Fatalf("%s: %v", j.app, err)
	}
}

// TestRecycledBuffersGolden: a GPU built from recycled cache arrays runs
// byte-identically to one built from fresh memory. Unrelated jobs first
// leave written arrays in the pools: other apps, 2, 4 and 8 CUs, an ORACLE
// job whose forks privatize overlays, a job cancelled mid-run and one
// stopped stuck. Then the jobs of run_results.golden and
// truth_results.golden run through dvfs.RunJob, each after one more
// unrelated job, and must reproduce the recorded digests under GOMAXPROCS
// 1 and 2.
func TestRecycledBuffersGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, j := range dirtyJobs {
			runDirty(t, j)
		}
		n := 0
		between := func() {
			runDirty(t, dirtyJobs[n%len(dirtyJobs)])
			n++
		}
		runLines := runResultsLines(t, dvfs.RunJob, between)
		truthLines := truthResultsLines(t, dvfs.RunJob, between)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			checkGolden(t, "run_results.golden", runResultsAbout, runLines)
			checkGolden(t, "truth_results.golden", truthResultsAbout, truthLines)
		})
	}
}
