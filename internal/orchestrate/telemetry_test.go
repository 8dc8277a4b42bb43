package orchestrate

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pcstall/internal/dvfs"
	"pcstall/internal/metricdoc"
	"pcstall/internal/telemetry"
)

func TestStatsStringFormat(t *testing.T) {
	s := Stats{
		Workers: 4, Unique: 10, Completed: 7, Running: 2, Queued: 1,
		Submissions: 12, MemHits: 2, DiskHits: 3, Misses: 7,
		JobTime: 5 * time.Second, Elapsed: 1500 * time.Millisecond,
	}
	want := "orchestrate: 7/10 jobs done (2 running, 1 queued), cache 2 mem + 3 disk hits / 7 misses, 4 workers, 1.5s elapsed"
	if got := s.String(); got != want {
		t.Fatalf("Stats.String:\ngot  %q\nwant %q", got, want)
	}
	// Sub-millisecond elapsed rounds away rather than printing noise.
	s.Elapsed = 499 * time.Microsecond
	if got := s.String(); got[len(got)-10:] != "0s elapsed" {
		t.Fatalf("rounding: %q", got)
	}
}

// TestProgressFinalFiresOnceOnClose pins the shutdown contract: with a
// period far beyond the test's lifetime, the only callback is the final
// snapshot Close delivers — and repeated Closes do not repeat it.
func TestProgressFinalFiresOnceOnClose(t *testing.T) {
	var calls int64
	run, _ := countingRun()
	o, err := New(Config{
		Workers: 2, Run: run,
		Progress:      func(Stats) { atomic.AddInt64(&calls, 1) },
		ProgressEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.RunJobs(context.Background(), []Job{testJob(0), testJob(1)}); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(&calls); n != 0 {
		t.Fatalf("ticker fired %d times within an hour-period window", n)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(&calls); n != 1 {
		t.Fatalf("final progress fired %d times, want exactly 1", n)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(&calls); n != 1 {
		t.Fatalf("second Close re-fired progress: %d calls", n)
	}
}

// TestCloseStopsProgressGoroutine checks the progress loop doesn't leak:
// after Close returns, the goroutine count settles back to the baseline.
func TestCloseStopsProgressGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	run, _ := countingRun()
	o, err := New(Config{
		Workers: 2, Run: run,
		Progress:      func(Stats) {},
		ProgressEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.RunJobs(context.Background(), []Job{testJob(0)}); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now, %d at baseline", runtime.NumGoroutine(), base)
}

func TestCampaignTelemetry(t *testing.T) {
	reg := telemetry.New()
	run, _ := countingRun()
	o, err := New(Config{Workers: 2, Run: run, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.RunJobs(context.Background(), []Job{testJob(0), testJob(1), testJob(0)}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["orchestrate_cache_misses_total"] != 2 ||
		s.Counters["orchestrate_cache_mem_hits_total"] != 1 ||
		s.Counters["orchestrate_jobs_completed_total"] != 2 {
		t.Fatalf("campaign counters %+v", s.Counters)
	}
	// Per-job registries merge in: countingRun bumps test_runs_total once
	// per real execution.
	if s.Counters["test_runs_total"] != 2 {
		t.Fatalf("per-job metrics not merged: test_runs_total=%d", s.Counters["test_runs_total"])
	}
	if hs := s.Histograms["orchestrate_job_run_seconds"]; hs.Count != 2 {
		t.Fatalf("run phase observed %d times, want 2", hs.Count)
	}
	if s.Gauges["orchestrate_jobs_running"] != 0 || s.Gauges["orchestrate_queue_depth"] != 0 {
		t.Fatalf("gauges did not settle: %+v", s.Gauges)
	}

	m := o.Manifest()
	if m.Metrics == nil || m.Metrics.Counters["test_runs_total"] != 2 {
		t.Fatalf("manifest missing campaign metrics: %+v", m.Metrics)
	}
	for _, e := range m.Jobs {
		if e.Source != "run" {
			continue
		}
		if e.Metrics == nil || e.Metrics.Counters["test_runs_total"] != 1 {
			t.Fatalf("entry %s missing per-job metrics: %+v", e.Key, e.Metrics)
		}
	}
}

func TestCampaignTelemetryDiskHits(t *testing.T) {
	dir := t.TempDir()
	run, _ := countingRun()
	o, err := New(Config{Workers: 2, CacheDir: dir, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.RunJobs(context.Background(), []Job{testJob(0), testJob(1)}); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	o2, err := New(Config{Workers: 2, CacheDir: dir, Run: run, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if _, err := o2.RunJobs(context.Background(), []Job{testJob(0), testJob(1)}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["orchestrate_cache_disk_hits_total"] != 2 ||
		s.Counters["orchestrate_jobs_completed_total"] != 2 {
		t.Fatalf("warm-rerun counters %+v", s.Counters)
	}
	if hs := s.Histograms["orchestrate_cache_get_seconds"]; hs.Count != 2 {
		t.Fatalf("cache get span observed %d times, want 2", hs.Count)
	}
	// Disk-served entries carry no per-job metrics (nothing ran).
	for _, e := range o2.Manifest().Jobs {
		if e.Source == "disk" && e.Metrics != nil {
			t.Fatalf("disk entry %s carries metrics", e.Key)
		}
	}
}

// TestTelemetryDisabledLeavesNoTrace checks the nil-registry campaign
// stays metric-free end to end.
func TestTelemetryDisabledLeavesNoTrace(t *testing.T) {
	run, _ := countingRun()
	o, err := New(Config{Workers: 2, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.RunJobs(context.Background(), []Job{testJob(0)}); err != nil {
		t.Fatal(err)
	}
	m := o.Manifest()
	if m.Metrics != nil {
		t.Fatal("manifest grew metrics without a registry")
	}
	for _, e := range m.Jobs {
		if e.Metrics != nil {
			t.Fatal("entry grew metrics without a registry")
		}
	}
}

// TestMetricInventory: every orchestrate_* series a campaign registers
// is documented in DESIGN.md's orchestrate_ row, and every documented
// name is registered.
func TestMetricInventory(t *testing.T) {
	reg := telemetry.New()
	run, _ := countingRun()
	o, err := New(Config{Workers: 2, CacheDir: t.TempDir(), Run: run, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.RunJobs(context.Background(), []Job{testJob(0), testJob(0)}); err != nil {
		t.Fatal(err)
	}
	problems, err := metricdoc.Check("../../DESIGN.md", "orchestrate_", reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestPhaseHistogramsCountEachOccurrence: each orchestrate phase
// histogram observes once per occurrence on every exit path. A job
// cancelled while queued still records its queue wait, an attempt cut
// loose by the per-job timeout still records its run, and every
// executed job records one cache lookup and, on success, one cache put.
func TestPhaseHistogramsCountEachOccurrence(t *testing.T) {
	count := func(reg *telemetry.Registry, phase string) int64 {
		return reg.Snapshot().Histograms["orchestrate_"+phase+"_seconds"].Count
	}

	t.Run("cancelled", func(t *testing.T) {
		reg := telemetry.New()
		started, release := make(chan struct{}), make(chan struct{})
		o, err := New(Config{Workers: 1, Metrics: reg, Run: func(_ context.Context, j Job, _ *telemetry.Registry) (*dvfs.Result, error) {
			if j.App != "app0" {
				t.Errorf("job %s ran; it should have been cancelled while queued", j.App)
				return &dvfs.Result{}, nil
			}
			close(started)
			<-release
			return &dvfs.Result{}, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		// One campaign holds the only slot; a second queues two jobs
		// behind it and is cancelled before the slot frees.
		errc := make(chan error, 1)
		go func() {
			_, err := o.RunJobs(context.Background(), []Job{testJob(0)})
			errc <- err
		}()
		<-started
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := o.RunJobs(ctx, []Job{testJob(1), testJob(2)}); err == nil {
			t.Fatal("cancelled campaign settled clean")
		}
		close(release)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if st := o.Stats(); st.Cancelled != 2 {
			t.Fatalf("cancelled %d jobs, want 2: %+v", st.Cancelled, st)
		}
		if n := count(reg, "job_queue_wait"); n != 3 {
			t.Errorf("job_queue_wait counted %d jobs, want 3", n)
		}
		if n := count(reg, "job_run"); n != 1 {
			t.Errorf("job_run counted %d attempts, want 1", n)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		reg := telemetry.New()
		release := make(chan struct{})
		defer close(release)
		o, err := New(Config{
			Workers: 1, Metrics: reg,
			JobTimeout: 20 * time.Millisecond, Retries: 1, RetryBackoff: time.Millisecond,
			// Ignores its context: each attempt is abandoned at the deadline.
			Run: func(context.Context, Job, *telemetry.Registry) (*dvfs.Result, error) {
				<-release
				return nil, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		if _, err := o.RunJobs(context.Background(), []Job{testJob(0)}); err == nil {
			t.Fatal("hung job settled clean")
		}
		if n := count(reg, "job_run"); n != 2 {
			t.Errorf("job_run counted %d attempts, want 2 (both abandoned)", n)
		}
		if n := count(reg, "job_queue_wait"); n != 1 {
			t.Errorf("job_queue_wait counted %d, want 1", n)
		}
	})

	t.Run("cache", func(t *testing.T) {
		reg := telemetry.New()
		run, _ := countingRun()
		o, err := New(Config{Workers: 2, CacheDir: t.TempDir(), Run: run, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		if _, err := o.RunJobs(context.Background(), []Job{testJob(0), testJob(1), testJob(2), testJob(1)}); err != nil {
			t.Fatal(err)
		}
		for phase, want := range map[string]int64{"cache_get": 3, "job_queue_wait": 3, "job_run": 3, "cache_put": 3} {
			if n := count(reg, phase); n != want {
				t.Errorf("%s counted %d, want %d", phase, n, want)
			}
		}
	})
}
