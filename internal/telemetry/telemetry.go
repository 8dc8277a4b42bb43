// Package telemetry is the repo's stdlib-only metrics substrate: a
// registry of named counters, gauges, and fixed-bucket histograms that
// the simulation stack (sim, predict, oracle, dvfs, orchestrate) updates
// at epoch and job boundaries, and that sinks read concurrently — a
// Prometheus-text/expvar HTTP endpoint for live campaigns, per-job
// snapshots merged into run manifests, and an end-of-run summary for the
// CLI.
//
// Design rules:
//
//   - Disabled means free. Every metric method is nil-receiver-safe and
//     a nil *Registry returns nil metrics from its constructors, so
//     instrumentation points compile to a nil check when no sink is
//     attached (BENCH_telemetry.json quantifies this).
//   - Writes never block reads. Counters are sharded atomics (shard
//     selection uses the runtime's per-thread fast random source, so
//     concurrent writers spread across cache lines); gauges and
//     histogram cells are single atomics. Snapshot reads are atomic
//     loads, safe concurrent with writes.
//   - Telemetry never feeds back into simulation: instrumented and
//     uninstrumented runs produce byte-identical results (the golden
//     test in internal/dvfs enforces this).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
)

// counterShards stripes each counter across cache lines; power of two.
const counterShards = 8

// cell is one padded counter stripe (64-byte cache line).
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded atomic counter. The zero
// value is ready to use; a nil *Counter ignores writes and reads as 0.
type Counter struct {
	cells [counterShards]cell
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	// rand.Uint64 draws from the runtime's per-thread generator: a few
	// nanoseconds, no shared state, and concurrent writers land on
	// different stripes with high probability.
	c.cells[rand.Uint64()&(counterShards-1)].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. Safe concurrent with Add.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.cells {
		n += c.cells[i].v.Load()
	}
	return n
}

// Gauge is an instantaneous float64 value. The zero value is ready; a
// nil *Gauge ignores writes and reads as 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (CAS loop; gauges are low-rate).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value loads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets: Observe(v) lands in
// the first bucket with v <= bound, else the overflow cell. A nil
// *Histogram ignores writes.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow (+Inf)
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// NewHistogram builds a detached histogram (registries usually build
// them via Registry.Histogram). Bounds must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// snapshot reads the histogram concurrently with writers.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// DurationBuckets are the default bounds for phase histograms, in seconds
// (0.1ms .. 100s, roughly logarithmic).
var DurationBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05,
	.1, .25, .5, 1, 2.5, 5, 10, 25, 50, 100,
}

// RatioBuckets are the default bounds for error/ratio histograms
// (mispredict magnitude, hit fractions).
var RatioBuckets = []float64{
	.01, .02, .05, .1, .15, .2, .3, .4, .5, .75, 1, 1.5, 2, 5,
}

// Registry is a named-metric namespace. The zero value is not usable;
// call New. A nil *Registry returns nil metrics from every constructor,
// making it the "disabled" state.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.setHelp(name, help)
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.setHelp(name, help)
	}
	return g
}

// Histogram returns (creating on first use) the named histogram. Bounds
// apply only on first creation; later calls return the existing
// histogram regardless of bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
		r.setHelp(name, help)
	}
	return h
}

// Phase returns (creating on first use) the named phase histogram with
// the standard duration buckets; callers observe elapsed seconds on it.
func (r *Registry) Phase(name string) *Histogram {
	return r.Histogram(name+"_seconds", "wall-clock seconds spent in the "+name+" phase", DurationBuckets)
}

// setHelp records help text for name (callers hold r.mu); the first
// non-empty help wins.
func (r *Registry) setHelp(name, help string) {
	if help != "" && r.help[name] == "" {
		r.help[name] = help
	}
}

// HistogramSnapshot is one histogram's point-in-time state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has len(Bounds)+1
	// entries, the last being the overflow (+Inf) bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
	// P50/P95/P99 are Quantile values precomputed at snapshot time so
	// manifest and BENCH consumers read tail latency without re-deriving
	// it from the buckets.
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// Mean returns the average observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) by locating the
// bucket holding rank q*Count and interpolating linearly within it —
// the standard Prometheus histogram_quantile estimate, so values agree
// with dashboards scraping /metrics. Observations in the overflow
// bucket clamp to the highest bound (the estimate cannot exceed what
// the buckets resolve). Empty histograms report 0; a histogram with no
// bounds falls back to the mean.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if len(h.Bounds) == 0 {
		return h.Mean()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			break // overflow bucket: clamp below
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry, safe to serialize.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric. Safe concurrent with writers; a nil
// registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.snapshot()
		}
	}
	return s
}

// Merge folds a snapshot into the registry: counters and histogram cells
// add, gauges take the snapshot's value. Histograms with mismatched
// bounds are skipped (bundle constructors use fixed bounds, so this only
// happens across incompatible versions). Merging per-job snapshots into
// a campaign-global registry is how live endpoints aggregate parallel
// runs. Nil registries ignore merges.
func (r *Registry) Merge(s Snapshot) {
	if r == nil {
		return
	}
	for n, v := range s.Counters {
		r.Counter(n, "").Add(v)
	}
	for n, v := range s.Gauges {
		r.Gauge(n, "").Set(v)
	}
	for n, hs := range s.Histograms {
		h := r.Histogram(n, "", hs.Bounds)
		if len(h.bounds) != len(hs.Bounds) {
			continue
		}
		same := true
		for i := range h.bounds {
			if h.bounds[i] != hs.Bounds[i] {
				same = false
				break
			}
		}
		if !same || len(hs.Counts) != len(h.counts) {
			continue
		}
		for i, c := range hs.Counts {
			h.counts[i].Add(c)
		}
		for {
			old := h.sum.Load()
			v := math.Float64frombits(old) + hs.Sum
			if h.sum.CompareAndSwap(old, math.Float64bits(v)) {
				break
			}
		}
	}
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fprint renders the snapshot as an aligned, name-sorted summary — the
// pcstall-sim -stats output.
func (s Snapshot) Fprint(w io.Writer) {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range names {
		if v, ok := s.Counters[n]; ok {
			fmt.Fprintf(w, "%-*s  %d\n", width, n, v)
		} else if v, ok := s.Gauges[n]; ok {
			fmt.Fprintf(w, "%-*s  %g\n", width, n, v)
		} else if h, ok := s.Histograms[n]; ok {
			fmt.Fprintf(w, "%-*s  count=%d sum=%.6g mean=%.6g p50=%.6g p95=%.6g p99=%.6g\n",
				width, n, h.Count, h.Sum, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
}
