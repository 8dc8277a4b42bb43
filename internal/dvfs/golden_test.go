package dvfs_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestEventLoopMatchesLegacyFigures is the end-to-end half of the golden
// gate for the event-driven RunUntil: a full DVFS run — policy
// decisions, chaos fault injection, per-epoch events, energy/runtime
// figures — must digest to the values recorded from the per-cycle loop
// it replaced.
func TestEventLoopMatchesLegacyFigures(t *testing.T) {
	var lines []string
	for _, app := range []string{"comd", "xsbench"} {
		for _, withChaos := range []bool{false, true} {
			cfg := sim.DefaultConfig(2)
			gen := workload.DefaultGenConfig(2)
			gen.Scale = 0.3
			a := workload.MustBuild(app, gen)
			g, err := sim.New(cfg, a.Kernels, a.Launches)
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.DesignByName("PCSTALL")
			if err != nil {
				t.Fatal(err)
			}
			pm := power.DefaultModelFor(2)
			var events trace.Collector
			rc := dvfs.RunConfig{Epoch: clock.Microsecond, Obj: dvfs.EDP, PM: &pm, Trace: &events}
			if withChaos {
				rc.Chaos = chaos.Level(0.2, 7)
			}
			res, err := dvfs.Run(g, d.New(), rc)
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
			lines = append(lines, fmt.Sprintf("%s chaos=%v epochs=%d result=%s events=%s",
				app, withChaos, res.Epochs, wire.Digest(rb), wire.Digest(eb)))
		}
	}
	checkGolden(t, "run_results.golden",
		"PCSTALL, EDP, 2 CUs, scale 0.3, 1us epochs, chaos level 0.2 seed 7 when on; result = digest of the Result JSON, events = digest of the JSON array of per-epoch trace events",
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
