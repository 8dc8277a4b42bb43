package dist

import (
	"context"
	"strings"
	"testing"
	"time"

	"pcstall/internal/metricdoc"
	"pcstall/internal/telemetry"
)

// faultyFleetRun dispatches four jobs over two backends whose first one
// fails its first sim: the first job is requeued off it and stolen by
// the second, which settles the rest. It returns the registry and the
// number of dispatch attempts the backends received.
func faultyFleetRun(t *testing.T) (*telemetry.Registry, int) {
	t.Helper()
	a, b := newWorker(t, "a"), newWorker(t, "b")
	a.failN = 1
	reg := telemetry.New()
	d := newDispatcher(t, Config{
		Backends: []string{a.srv.URL, b.srv.URL},
		Metrics:  reg,
		// The failed backend stays quarantined for the whole test.
		ProbeBackoff: time.Minute, MaxProbeBackoff: time.Minute,
	})
	run := d.Bind(noLocal(t), noCache)
	for i := 0; i < 4; i++ {
		if _, err := run(context.Background(), testJob(uint64(i+1)), nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if a.calls() != 1 {
		t.Fatalf("failing backend received %d dispatches, want 1", a.calls())
	}
	return reg, a.calls() + b.calls()
}

// TestMetricInventory: every dist_* series a faulted fleet run registers
// is documented in DESIGN.md's dist_ row, and every documented name is
// registered.
func TestMetricInventory(t *testing.T) {
	reg, _ := faultyFleetRun(t)
	problems, err := metricdoc.Check("../../DESIGN.md", "dist_", reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	// The per-backend family is a template in the row; check the events
	// this run must have produced by name.
	c := reg.Snapshot().Counters
	for _, event := range []string{"dispatched", "errors", "quarantines", "stolen"} {
		var n int64
		for name, v := range c {
			if strings.HasPrefix(name, "dist_backend_") && strings.HasSuffix(name, "_"+event+"_total") {
				n += v
			}
		}
		if n == 0 {
			t.Errorf("no dist_backend_<name>_%s_total was counted", event)
		}
	}
}

// TestRemotePhaseCountsEveryAttempt: dist_remote_job_seconds observes
// every dispatch attempt exactly once, the failed one included.
func TestRemotePhaseCountsEveryAttempt(t *testing.T) {
	reg, attempts := faultyFleetRun(t)
	if n := reg.Snapshot().Histograms["dist_remote_job_seconds"].Count; n != int64(attempts) {
		t.Errorf("dist_remote_job_seconds counted %d attempts, want %d", n, attempts)
	}
}
