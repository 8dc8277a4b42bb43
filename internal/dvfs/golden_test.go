package dvfs_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pcstall/internal/chaos"
	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/orchestrate"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/trace"
	"pcstall/internal/wire"
	"pcstall/internal/workload"
)

// jobRunner runs one job from its factories, as dvfs.RunJob does.
type jobRunner func(build func() (*sim.GPU, error), newPol func() dvfs.Policy, rc dvfs.RunConfig) (dvfs.Result, error)

// runFresh runs a job with dvfs.Run on the GPU build returns and leaves
// the GPU to the garbage collector.
func runFresh(build func() (*sim.GPU, error), newPol func() dvfs.Policy, rc dvfs.RunConfig) (dvfs.Result, error) {
	g, err := build()
	if err != nil {
		return dvfs.Result{}, err
	}
	return dvfs.Run(g, newPol(), rc)
}

// goldenLine runs design on app at the golden platform (2 CUs, scale
// 0.3, 1us epochs, EDP), with chaos level 0.2 seed 7 when withChaos, and
// returns the run's epoch count and the digests of its Result JSON and
// of its per-epoch trace events.
func goldenLine(t *testing.T, run jobRunner, app, design string, withChaos bool) string {
	t.Helper()
	d, err := core.DesignByName(design)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*sim.GPU, error) {
		gen := workload.DefaultGenConfig(2)
		gen.Scale = 0.3
		a := workload.MustBuild(app, gen)
		return sim.New(sim.DefaultConfig(2), a.Kernels, a.Launches)
	}
	pm := power.DefaultModelFor(2)
	var events trace.Collector
	rc := dvfs.RunConfig{Epoch: clock.Microsecond, Obj: dvfs.EDP, PM: &pm, Trace: &events}
	if withChaos {
		rc.Chaos = chaos.Level(0.2, 7)
	}
	res, err := run(build, d.New, rc)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := json.Marshal(events.Events())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("epochs=%d result=%s events=%s", res.Epochs, wire.Digest(rb), wire.Digest(eb))
}

const (
	runResultsAbout   = "PCSTALL, EDP, 2 CUs, scale 0.3, 1us epochs, chaos level 0.2 seed 7 when on; result = digest of the Result JSON, events = digest of the JSON array of per-epoch trace events"
	truthResultsAbout = "ORACLE/ACCREAC/ACCPC, EDP, 2 CUs, scale 0.3, 1us epochs, default oracle forks; result = digest of the Result JSON, events = digest of the JSON array of per-epoch trace events; identical under GOMAXPROCS 1 and 2"
)

// runResultsLines returns run_results.golden's data lines, calling
// before (when non-nil) ahead of each job.
func runResultsLines(t *testing.T, run jobRunner, before func()) []string {
	var lines []string
	for _, app := range []string{"comd", "xsbench"} {
		for _, withChaos := range []bool{false, true} {
			if before != nil {
				before()
			}
			lines = append(lines, fmt.Sprintf("%s chaos=%v %s", app, withChaos, goldenLine(t, run, app, "PCSTALL", withChaos)))
		}
	}
	return lines
}

// truthResultsLines returns truth_results.golden's data lines, calling
// before (when non-nil) ahead of each job.
func truthResultsLines(t *testing.T, run jobRunner, before func()) []string {
	var lines []string
	for _, app := range []string{"comd", "xsbench"} {
		for _, design := range []string{"ORACLE", "ACCREAC", "ACCPC"} {
			if before != nil {
				before()
			}
			lines = append(lines, fmt.Sprintf("%s %s %s", app, design, goldenLine(t, run, app, design, false)))
		}
	}
	return lines
}

// TestEventLoopMatchesLegacyFigures is the end-to-end half of the golden
// gate for the event-driven RunUntil: a full DVFS run — policy
// decisions, chaos fault injection, per-epoch events, energy/runtime
// figures — must digest to the values recorded from the per-cycle loop
// it replaced.
func TestEventLoopMatchesLegacyFigures(t *testing.T) {
	checkGolden(t, "run_results.golden", runResultsAbout, runResultsLines(t, runFresh, nil))
}

// TestTruthDesignsGolden pins the truth-consuming designs byte for byte:
// ORACLE, ACCREAC and ACCPC read every epoch's ground truth from the
// oracle's fork-pre-execute samples, so their results and per-epoch
// events digest everything the forks computed. SampleNext fans its forks
// out over GOMAXPROCS goroutines; the truths, and so the digests, must not
// depend on how many.
func TestTruthDesignsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		lines := truthResultsLines(t, runFresh, nil)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			checkGolden(t, "truth_results.golden", truthResultsAbout, lines)
		})
	}
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
