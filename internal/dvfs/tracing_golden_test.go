package dvfs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/trace"
	"pcstall/internal/tracing"
	"pcstall/internal/workload"
)

// tracedRun executes one small run with ctx (which may carry a tracer)
// attached. Mirrors goldenRun but exercises the RunConfig.Ctx path the
// tracing layer rides.
func tracedRun(t *testing.T, design string, ctx context.Context) runOutput {
	t.Helper()
	simCfg := sim.DefaultConfig(4)
	gen := workload.DefaultGenConfig(4)
	gen.Scale = 0.25
	app := workload.MustBuild("comd", gen)
	d, err := core.DesignByName(design)
	if err != nil {
		t.Fatal(err)
	}
	pm := power.DefaultModelFor(4)
	g, err := sim.New(simCfg, app.Kernels, app.Launches)
	if err != nil {
		t.Fatal(err)
	}
	var events trace.Collector
	res, err := dvfs.Run(g, d.New(), dvfs.RunConfig{
		Epoch: clock.Microsecond,
		Obj:   dvfs.ED2P,
		PM:    &pm,
		Trace: &events,
		Ctx:   ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	return runOutput{res, events.Events()}
}

// TestTracingGolden is the tracing determinism contract: a run under an
// active tracer must produce a byte-identical result to the same run
// with tracing disabled. Tracing observes the simulation; it never
// feeds back.
func TestTracingGolden(t *testing.T) {
	for _, design := range []string{"PCSTALL", "ORACLE", "ACCREAC"} {
		base := tracedRun(t, design, nil)
		tr := tracing.New("test", 8)
		ctx := tracing.WithTracer(context.Background(), tr)
		traced := tracedRun(t, design, ctx)
		bj, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		tj, err := json.Marshal(traced)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bj, tj) {
			t.Fatalf("%s: tracing perturbed the run:\nbase   %s\ntraced %s", design, bj, tj)
		}
	}
}

// TestTracingRecordsRun checks an instrumented run lands a dvfs.run
// span with final counts in the flight recorder.
func TestTracingRecordsRun(t *testing.T) {
	tr := tracing.New("test", 8)
	ctx := tracing.WithTracer(context.Background(), tr)
	res := tracedRun(t, "PCSTALL", ctx)

	traces := tr.Recorder().Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	root := traces[0].Root()
	if root == nil || root.Name != "dvfs.run" {
		t.Fatalf("trace root = %+v, want dvfs.run span", root)
	}
	attrs := map[string]string{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["policy"] != res.Policy || attrs["objective"] != res.Objective {
		t.Fatalf("span attrs %v do not match result %s/%s", attrs, res.Policy, res.Objective)
	}
	if attrs["epochs"] == "" || attrs["epochs"] == "0" {
		t.Fatalf("span missing epoch count: %v", attrs)
	}
}
