package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
)

func TestScheduleDeterministic(t *testing.T) {
	a := schedule(rand.New(rand.NewPCG(7, 1)), 400, 10*time.Second)
	b := schedule(rand.New(rand.NewPCG(7, 1)), 400, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := schedule(rand.New(rand.NewPCG(8, 1)), 400, 10*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second || a[i] < 0 {
			t.Fatalf("arrival %d at %v is out of order or outside the span", i, a[i])
		}
	}
}

func TestFleetJobsDistinct(t *testing.T) {
	jobs := fleetJobs()
	if len(jobs) != len(fleetPlatform.apps)*len(fleetDesigns)*len(fleetEpochsUs) {
		t.Fatalf("%d fleet jobs", len(jobs))
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		keys[j.Key()] = true
	}
	if len(keys) != len(jobs) {
		t.Fatalf("fleet jobs share keys: %d unique of %d", len(keys), len(jobs))
	}
}

// TestFleetReferenceMatchesLocal holds the recorded fleet table to the
// results of the same jobs run in-process, so the fleet check compares
// against what a local campaign computes.
func TestFleetReferenceMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 144-job campaign in-process")
	}
	suite := exp.NewSuite(exp.Config{CUs: fleetPlatform.cus, Scale: fleetPlatform.scale, Seed: simSeed, Workers: workers, NoCache: true})
	defer suite.Close()
	jobs := fleetJobs()
	res := make([]*dvfs.Result, len(jobs))
	for i, j := range jobs {
		r, err := suite.RunSim(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	want, err := refs.ReadFile("refs/fleet.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetTable(jobs, res); got != string(want) {
		t.Fatal("refs/fleet.txt differs from the in-process results of the fleet jobs")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.90); ok {
		t.Fatal("p90 of 99 samples has 9 beyond it and must not be reported")
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Fatal("p99 of 100 samples must not be reported")
	}
	if v, ok := percentile(xs[:20], 0.50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 {
		t.Fatal("median of an even count is the mean of the middle two")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workloadJS `json:"workloads"`
	EndToEnd   []e2eJS      `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

type workloadJS struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eJS struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func TestBenchmarkJSONRoundTrips(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("decoding BENCHMARK.json: %v", err)
	}
	again, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	var bf2 benchmarkFile
	if err := json.Unmarshal(again, &bf2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf, bf2) {
		t.Fatal("BENCHMARK.json does not round-trip")
	}

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	var e2e []metricDecl
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDecl{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Fatalf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerMetrics) {
		t.Fatal("BENCHMARK.json per_layer differs from the metrics the traced run reports")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better %q", m.Name, m.Better)
		}
	}
	for _, w := range workloadNames() {
		if !metricName.MatchString(w) {
			t.Errorf("workload name %q", w)
		}
	}
}

// TestTracedExecutorMatchesSuite holds the traced executor to the bytes
// of exp.Suite's own, so the traced run's numbers describe the same work.
func TestTracedExecutorMatchesSuite(t *testing.T) {
	cfg := exp.Config{CUs: 2, Scale: 0.1, Seed: 3, Apps: []string{"comd"}, Workers: 1, NoCache: true}
	plain := exp.NewSuite(cfg)
	defer plain.Close()
	l := newLayers()
	cfg.RunVia = l.runVia(cfg.CUs)
	traced := exp.NewSuite(cfg)
	defer traced.Close()
	for _, design := range []string{"PCSTALL", "ORACLE", "ACCPC"} {
		j := plain.SimDefaults()
		j.App, j.Design, j.SimVersion = "comd", design, orchestrate.SimVersion
		want, err := plain.RunSim(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		got, err := traced.RunSim(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(wb, gb) {
			t.Fatalf("%s: traced executor result differs from exp.Suite's", design)
		}
	}
	if len(l.jobs) != 3 || l.jobs[0].truth || !l.jobs[1].truth || l.jobs[0].epochs == 0 {
		t.Fatalf("traced executor recorded %+v", l.jobs)
	}
}
