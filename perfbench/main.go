// Command perfbench is the repository's benchmark. It runs one named
// workload against a fresh in-process system, checks every output the
// system produces, and prints one JSON result line whose metrics
// BENCHMARK.json names.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the workload runs twice, untraced and then traced, and the
// result carries the per-layer metrics instead (README.md lists both).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// record rewrites the reference tables under this directory instead
	// of comparing against the embedded ones.
	record string
}

// spec is one named workload: an input set of the benchmark.
type spec struct {
	name string
	// run executes the workload once on a fresh system. l is nil on an
	// untraced pass; on a traced pass the workload routes its calls
	// through l's timing seams.
	run func(o options, l *layers) (*outcome, error)
	// micro is the platform the traced pass calls sim and oracle on
	// directly: the workload's own apps.
	micro platform
}

var workloads = []spec{
	{name: "figures", run: runFigures, micro: figuresPlatform},
	{name: "sim-cold", run: runSimCold, micro: servePlatform},
	{name: "sim-hot", run: runSimHot, micro: servePlatform},
	{name: "fleet", run: runFleet, micro: fleetPlatform},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the traffic and fleet workloads measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	fs.StringVar(&o.record, "record", "", "write the reference tables into this directory instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (available: %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}

	base, err := w.run(o, nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Correct: len(base.checks) == 0, Attempted: base.attempted, Failed: base.failed}
	for _, c := range base.checks {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %s\n", w.name, c)
	}
	e2e, err := base.endToEnd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if lag := base.lagP99(); lag > maxLag {
		fmt.Fprintf(stderr, "perfbench: %s: flagged: the load generator sent its p99 request %v late (limit %v); compare this run's latencies with care\n", w.name, lag, maxLag)
	}
	if !o.trace {
		res.Metrics = withUnits(e2e, endToEndMetrics)
	} else {
		l := newLayers()
		traced, err := w.run(o, l)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", w.name, err)
			return 1
		}
		for _, c := range traced.checks {
			fmt.Fprintf(stderr, "perfbench: %s (traced): output check failed: %s\n", w.name, c)
		}
		res.Correct = res.Correct && len(traced.checks) == 0
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		te2e, err := traced.endToEnd()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", w.name, err)
			return 1
		}
		mb := microbench(w.micro)
		vals := l.perLayer(mb, traced)
		// Overhead is how much worse the traced pass read, as a share of
		// the untraced value, so it is positive when tracing costs.
		for _, d := range endToEndMetrics {
			if v := e2e[d.Name]; v != 0 {
				f := (te2e[d.Name] - v) / v
				if d.Better == "higher" {
					f = -f
				}
				vals["trace.overhead_frac."+d.Name] = f
			}
		}
		l.report(stderr, w.name, vals, te2e)
		res.Metrics = withUnits(vals, perLayerMetrics)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// withUnits keeps exactly the declared metrics, in declaration order, and
// reports any declared metric the run could not measure as 0.
func withUnits(vals map[string]float64, decl []metricDecl) map[string]metric {
	out := make(map[string]metric, len(decl))
	for _, d := range decl {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// outcome is what one pass of a workload measured.
type outcome struct {
	// setup holds every set-up's duration (several per run).
	setup []time.Duration
	// campaign is the measured wall time: the whole campaign, or the
	// traffic from the first scheduled arrival to the last response.
	campaign time.Duration
	// latencies are per job (campaigns) or per request (traffic), the
	// latter timed from each request's scheduled send time.
	latencies []time.Duration
	// coldLatencies are the latencies of requests or jobs that ran a
	// simulation on a server (traffic class cold, every fleet job).
	coldLatencies []time.Duration
	// good counts verified results: jobs whose output checked, or 200 and
	// 304 responses whose digest and key checked.
	good int
	// goodWall is the wall time good was produced in, when that is not
	// campaign (a run of several campaigns).
	goodWall          time.Duration
	attempted, failed int
	// checks lists failed output checks; any entry fails the run.
	checks []string
	// lags are the load generator's per-arrival send delays.
	lags []time.Duration
	// rssMB is the process's peak resident memory at the end of the pass.
	rssMB float64
}

// maxLag is how late the load generator may send its p99 request before
// a run is flagged.
const maxLag = 5 * time.Millisecond

// lagP99 is the load generator's p99 send delay (0 without traffic).
func (o *outcome) lagP99() time.Duration {
	lag := make([]float64, len(o.lags))
	for i, d := range o.lags {
		lag[i] = float64(d)
	}
	p99, _ := percentile(lag, 0.99)
	return time.Duration(p99)
}

func (o *outcome) checkf(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// endToEnd derives the end-to-end metrics of one pass.
func (o *outcome) endToEnd() (map[string]float64, error) {
	if o.attempted < 1 {
		return nil, fmt.Errorf("nothing was attempted")
	}
	ms := make([]float64, len(o.latencies))
	for i, d := range o.latencies {
		ms[i] = seconds(d) * 1e3
	}
	p50, ok50 := percentile(ms, 0.50)
	p90, ok90 := percentile(ms, 0.90)
	if !ok50 || !ok90 {
		return nil, fmt.Errorf("%d latency samples are too few for a p90 with 10 samples beyond it", len(ms))
	}
	goodWall := o.goodWall
	if goodWall == 0 {
		goodWall = o.campaign
	}
	return map[string]float64{
		"setup_s":     median(durationsSeconds(o.setup)),
		"campaign_s":  seconds(o.campaign),
		"sim_p50_ms":  p50,
		"sim_p90_ms":  p90,
		"goodput_rps": float64(o.good) / seconds(goodWall),
		"ok_frac":     1 - float64(o.failed)/float64(o.attempted),
		"max_rss_mb":  o.rssMB,
	}, nil
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// percentile returns the nearest-rank p-quantile of xs. It reports false
// unless at least 10 samples lie beyond the returned rank, the fewest
// that make a tail percentile worth reporting.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return s[rank], n-1-rank >= 10
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
