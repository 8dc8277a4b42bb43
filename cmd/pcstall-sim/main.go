// Command pcstall-sim runs one workload under one DVFS design and prints
// the run summary: completion time, energy, EDP/ED²P, prediction accuracy
// and frequency residency.
//
// Examples:
//
//	pcstall-sim -app comd -design PCSTALL
//	pcstall-sim -app dgemm -design ORACLE -epoch-us 10 -objective EDP
//	pcstall-sim -app xsbench -design STATIC-1300 -cus 16 -cus-per-domain 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pcstall"
	"pcstall/internal/trace"
	"pcstall/internal/tracing"
)

func main() {
	app := flag.String("app", "comd", "workload name (see pcstall-workloads)")
	design := flag.String("design", "PCSTALL", "DVFS design (TABLE III name or STATIC-<MHz>)")
	cus := flag.Int("cus", 8, "number of compute units")
	cusPerDomain := flag.Int("cus-per-domain", 1, "CUs per V/f domain")
	epochUs := flag.Int64("epoch-us", 1, "DVFS epoch in microseconds")
	objective := flag.String("objective", "ED2P", "objective: EDP, ED2P, or PERF<pct> (e.g. PERF5)")
	scale := flag.Float64("scale", 1.0, "workload duration scale")
	seed := flag.Uint64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print per-epoch records")
	epochTrace := flag.String("trace", "", "write a per-epoch trace to this file (.jsonl or .csv)")
	stats := flag.Bool("stats", false, "print the run's telemetry summary (cycles, stalls, cache hits, prediction error)")
	chaosSpec := flag.String("chaos", "", "fault-injection spec, e.g. 'noise=0.1,tfail=0.05,seed=7' or 'level=0.2' (empty = no faults)")
	maxCycles := flag.Int64("max-cycles", 0, "CU-cycle budget; the watchdog stops runs that exhaust it (0 = unbounded)")
	traceOut := flag.String("trace-out", "", "write the run's span trace to FILE in Chrome trace-event format (distinct from -trace, the per-epoch record)")
	showVersion := flag.Bool("version", false, "print the simulator version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(pcstall.Version())
		return
	}

	cfg := pcstall.DefaultConfig(*cus)
	cfg.GPU.Domains.CUsPerDomain = *cusPerDomain
	cfg.GPU.Seed = *seed
	cfg.Epoch = pcstall.Time(*epochUs) * pcstall.Microsecond
	cfg.Scale = *scale
	cfg.MaxCycles = *maxCycles
	if *chaosSpec != "" {
		ch, err := pcstall.ParseChaos(*chaosSpec)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Chaos = ch
	}

	switch {
	case *objective == "EDP":
		cfg.Objective = pcstall.EDP
	case *objective == "ED2P":
		cfg.Objective = pcstall.ED2P
	case strings.HasPrefix(*objective, "PERF"):
		var pct float64
		if _, err := fmt.Sscanf(*objective, "PERF%f", &pct); err != nil {
			fatalf("bad objective %q: %v", *objective, err)
		}
		cfg.Objective = pcstall.FixedPerf(pct / 100)
	default:
		fatalf("unknown objective %q (EDP, ED2P, PERF<pct>)", *objective)
	}

	// -v reads the run's epochs back from a collector; -trace streams
	// them to a file. Either, both or neither may be on.
	var (
		epochs     pcstall.TraceCollector
		recs       trace.Multi
		traceClose func() error
	)
	if *verbose {
		recs = append(recs, &epochs)
	}
	if *epochTrace != "" {
		f, err := os.Create(*epochTrace)
		if err != nil {
			fatalf("%v", err)
		}
		if strings.HasSuffix(*epochTrace, ".csv") {
			recs = append(recs, pcstall.NewCSVTrace(f))
		} else {
			recs = append(recs, pcstall.NewJSONLTrace(f))
		}
		traceClose = func() error {
			// The recorder buffers; flush it before the file so a failed
			// final flush is reported, not silently dropped.
			if err := recs.Close(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	if recs != nil {
		cfg.Trace = recs
	}

	var reg *pcstall.Metrics
	if *stats {
		reg = pcstall.NewMetrics()
		cfg.Metrics = reg
	}

	// SIGINT/SIGTERM stops the run at the next epoch boundary instead of
	// killing the process mid-write (the trace recorder still flushes).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var tracer *tracing.Tracer
	if *traceOut != "" {
		tracer = tracing.New("pcstall-sim", tracing.DefaultCapacity)
		ctx = tracing.WithTracer(ctx, tracer)
	}
	cfg.Ctx = ctx

	res, err := pcstall.RunApp(*app, *design, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if traceClose != nil {
				if cerr := traceClose(); cerr != nil {
					fmt.Fprintf(os.Stderr, "pcstall-sim: trace %s: %v\n", *epochTrace, cerr)
				}
			}
			fmt.Fprintf(os.Stderr, "pcstall-sim: interrupted after %d epochs\n", res.Epochs)
			os.Exit(130)
		}
		var de *pcstall.DeadlockError
		if errors.As(err, &de) {
			// Print the structured diagnosis plus whatever partial
			// result exists — a deadlocked run is an answer, not noise.
			fmt.Fprintf(os.Stderr, "pcstall-sim: watchdog: %v\n", de)
			fmt.Fprintf(os.Stderr, "pcstall-sim: partial result: %d epochs, %d instructions committed\n",
				res.Epochs, res.Totals.Committed)
			os.Exit(3)
		}
		fatalf("%v", err)
	}
	if traceClose != nil {
		if err := traceClose(); err != nil {
			fatalf("trace %s: %v", *epochTrace, err)
		}
	}
	if tracer != nil {
		if err := tracer.Recorder().WriteChromeFile(*traceOut); err != nil {
			fatalf("%v", err)
		}
	}

	fmt.Printf("app        %s\n", *app)
	fmt.Printf("design     %s (objective %s)\n", res.Policy, res.Objective)
	fmt.Printf("epochs     %d x %dus\n", res.Epochs, *epochUs)
	fmt.Printf("time       %.2f us%s\n", res.Totals.TimeS*1e6, truncNote(res.Truncated))
	fmt.Printf("energy     %.2f uJ\n", res.Totals.EnergyJ*1e6)
	fmt.Printf("EDP        %.4g J*s\n", res.Totals.EDP())
	fmt.Printf("ED2P       %.4g J*s^2\n", res.Totals.ED2P())
	fmt.Printf("committed  %d instructions\n", res.Totals.Committed)
	if res.AccuracyN > 0 {
		fmt.Printf("accuracy   %.3f over %d domain-epochs\n", res.Accuracy, res.AccuracyN)
	}
	fmt.Printf("transitions %d\n", res.Transitions)
	fmt.Printf("residency  ")
	grid := cfg.GPU.Grid
	for k, share := range res.Residency {
		if share > 0.001 {
			fmt.Printf("%v:%.1f%% ", grid.State(k), share*100)
		}
	}
	fmt.Println()
	if res.Chaos != (pcstall.ChaosStats{}) {
		fmt.Printf("chaos      noisy=%d dropped=%d stale=%d tfail=%d jitter=%dps pcflip=%d\n",
			res.Chaos.NoisyCounters, res.Chaos.DroppedCUs, res.Chaos.StaleCUs,
			res.Chaos.FailedTransitions, res.Chaos.JitterPs, res.Chaos.FlippedPCs)
	}

	for _, e := range epochs.Events() {
		var energy float64
		for _, d := range e.Domains {
			energy += d.EnergyJ
		}
		d0 := e.Domains[0]
		fmt.Printf("epoch %4d  d0 f=%v pred=%.0f actual=%.0f energy=%.3guJ\n",
			e.Index, pcstall.Freq(d0.FreqMHz), d0.PredI, d0.ActualI, energy*1e6)
	}

	if *stats {
		fmt.Println()
		fmt.Println("telemetry:")
		reg.Snapshot().Fprint(os.Stdout)
	}
}

func truncNote(t bool) string {
	if t {
		return " (TRUNCATED at time cap)"
	}
	return ""
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pcstall-sim: "+format+"\n", args...)
	os.Exit(1)
}
