package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if v := c.Value(); v != 42 {
		t.Fatalf("counter value %d, want 42", v)
	}
}

func TestNilMetricsAreInert(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter read nonzero")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge read nonzero")
	}
	var h *Histogram
	h.Observe(1)
	if h.Bounds() != nil {
		t.Fatal("nil histogram has bounds")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil ||
		r.Histogram("x", "", RatioBuckets) != nil || r.Phase("x") != nil {
		t.Fatal("nil registry built a metric")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatal("nil registry snapshot not empty")
	}
	if r.Names() != nil {
		t.Fatal("nil registry has names")
	}
	r.Merge(Snapshot{Counters: map[string]int64{"x": 1}})
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge %g, want 2.5", g.Value())
	}
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge %g, want 1.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{2, 1}) // unsorted on purpose
	for _, v := range []float64{0.5, 1, 1.5, 3} {
		h.Observe(v)
	}
	s := h.snapshot()
	if want := []float64{1, 2}; s.Bounds[0] != want[0] || s.Bounds[1] != want[1] {
		t.Fatalf("bounds not sorted: %v", s.Bounds)
	}
	// v <= bound lands in the bucket: {0.5, 1} -> le=1, {1.5} -> le=2,
	// {3} -> overflow.
	if s.Counts[0] != 2 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("counts %v", s.Counts)
	}
	if s.Count != 4 || s.Sum != 6 {
		t.Fatalf("count=%d sum=%g", s.Count, s.Sum)
	}
	if m := s.Mean(); m != 1.5 {
		t.Fatalf("mean %g", m)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty mean not 0")
	}
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := New()
	if r.Counter("c", "one") != r.Counter("c", "two") {
		t.Fatal("same counter name built two counters")
	}
	if r.Gauge("g", "") != r.Gauge("g", "") {
		t.Fatal("same gauge name built two gauges")
	}
	h := r.Histogram("h", "", []float64{1, 2})
	if h != r.Histogram("h", "", []float64{5}) {
		t.Fatal("same histogram name built two histograms")
	}
	if len(h.Bounds()) != 2 {
		t.Fatal("later bounds overwrote the first creation")
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "c" || names[1] != "g" || names[2] != "h" {
		t.Fatalf("names %v", names)
	}
}

func TestSnapshotAndMerge(t *testing.T) {
	a := New()
	a.Counter("runs", "").Add(5)
	a.Gauge("depth", "").Set(2.5)
	h := a.Histogram("err", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(3)

	s := a.Snapshot()
	if s.Counters["runs"] != 5 || s.Gauges["depth"] != 2.5 {
		t.Fatalf("snapshot %+v", s)
	}
	if hs := s.Histograms["err"]; hs.Count != 2 || hs.Sum != 3.5 {
		t.Fatalf("histogram snapshot %+v", hs)
	}

	b := New()
	b.Merge(s)
	b.Merge(s)
	bs := b.Snapshot()
	if bs.Counters["runs"] != 10 {
		t.Fatalf("merged counter %d, want 10", bs.Counters["runs"])
	}
	if bs.Gauges["depth"] != 2.5 {
		t.Fatalf("merged gauge %g, want 2.5 (set, not add)", bs.Gauges["depth"])
	}
	if hs := bs.Histograms["err"]; hs.Count != 4 || hs.Sum != 7 {
		t.Fatalf("merged histogram %+v", hs)
	}

	// Mismatched bounds must be skipped, not corrupt the histogram.
	c := New()
	c.Histogram("err", "", []float64{9}).Observe(1)
	c.Merge(s)
	if hs := c.Snapshot().Histograms["err"]; hs.Count != 1 {
		t.Fatalf("mismatched-bounds merge altered histogram: %+v", hs)
	}
}

func TestSnapshotFprint(t *testing.T) {
	r := New()
	r.Counter("sim_cycles_total", "").Add(100)
	r.Gauge("queue_depth", "").Set(3)
	r.Histogram("err", "", []float64{1}).Observe(0.5)
	var b strings.Builder
	r.Snapshot().Fprint(&b)
	out := b.String()
	for _, want := range []string{
		"err               count=1 sum=0.5 mean=0.5 p50=0.5 p95=0.95 p99=0.99\n",
		"queue_depth       3\n",
		"sim_cycles_total  100\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	// Observations 1..100 with decade bounds put exactly ten per bucket,
	// so linear interpolation lands on q*100 exactly.
	h := NewHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.snapshot()
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.95, 95}, {0.99, 99}, {0.1, 10}, {1, 100}, {0, 0},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if s.P50 != s.Quantile(0.5) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Fatalf("snapshot quantile fields disagree with Quantile: %+v", s)
	}

	// Out-of-range q clamps.
	if got := s.Quantile(1.5); got != s.Quantile(1) {
		t.Errorf("Quantile(1.5) = %g, want clamp to %g", got, s.Quantile(1))
	}
	if got := s.Quantile(-1); got != s.Quantile(0) {
		t.Errorf("Quantile(-1) = %g, want clamp to %g", got, s.Quantile(0))
	}

	// Empty histogram reports 0.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}

	// Overflow observations clamp to the highest bound.
	o := NewHistogram([]float64{1})
	o.Observe(50)
	if got := o.snapshot().Quantile(0.99); got != 1 {
		t.Errorf("overflow Quantile = %g, want 1 (highest bound)", got)
	}

	// No bounds at all falls back to the mean.
	nb := NewHistogram(nil)
	nb.Observe(4)
	nb.Observe(6)
	if got := nb.snapshot().Quantile(0.5); got != 5 {
		t.Errorf("boundless Quantile = %g, want mean 5", got)
	}
}

// TestPhaseAndSpan: Phase names a "<name>_seconds" histogram on the
// standard duration buckets, and returns the same histogram on reuse.
func TestPhaseAndSpan(t *testing.T) {
	r := New()
	h := r.Phase("job_run")
	if r.Phase("job_run") != h {
		t.Fatal("Phase built a second histogram for the same name")
	}
	h.Observe(0.002)
	hs := r.Snapshot().Histograms["job_run_seconds"]
	if hs.Count != 1 || hs.Sum != 0.002 {
		t.Fatalf("phase not recorded: %+v", hs)
	}
	if len(hs.Bounds) != len(DurationBuckets) {
		t.Fatalf("phase bounds %v, want DurationBuckets", hs.Bounds)
	}
}

// TestConcurrentWritesAndSnapshots exercises the registry under -race:
// writers on all metric kinds racing snapshot readers and merges.
func TestConcurrentWritesAndSnapshots(t *testing.T) {
	r := New()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", RatioBuckets)
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%10) / 10)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		other := New()
		for i := 0; i < 200; i++ {
			s := r.Snapshot()
			other.Merge(s)
			_ = r.Names()
		}
	}()
	wg.Wait()
	<-done
	if v := c.Value(); v != workers*iters {
		t.Fatalf("counter %d, want %d", v, workers*iters)
	}
	if hs := r.Snapshot().Histograms["h"]; hs.Count != workers*iters {
		t.Fatalf("histogram count %d, want %d", hs.Count, workers*iters)
	}
}
