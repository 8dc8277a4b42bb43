package dvfs

import (
	"context"
	"fmt"

	"pcstall/internal/chaos"
	"pcstall/internal/clock"
	"pcstall/internal/metrics"
	"pcstall/internal/oracle"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/telemetry"
	"pcstall/internal/trace"
	"pcstall/internal/tracing"
)

// RunConfig parameterizes one application run under a policy.
type RunConfig struct {
	// Epoch is the fixed DVFS time epoch (§3.1).
	Epoch clock.Time
	// Obj is the objective function.
	Obj Objective
	// PM is the power model.
	PM *power.Model
	// Transition overrides the V/f transition latency; 0 selects the
	// paper's epoch-dependent latency (clock.TransitionLatency).
	Transition clock.Time
	// MaxTime caps simulated time as a runaway guard; 0 means 100 ms.
	MaxTime clock.Time
	// OracleSamples overrides the sampler's fork count for policies
	// that need truth (0 = one per V/f state).
	OracleSamples int
	// Trace, when non-nil, receives one EpochEvent per epoch; a
	// trace.Collector keeps them for reading back after the run.
	Trace trace.Recorder
	// InstrWindow switches the controller from fixed-time epochs to
	// fixed-instruction windows (the §3.1 alternative the paper argues
	// against): a boundary occurs once the GPU commits this many
	// instructions (or after 8×Epoch as a starvation guard). Epoch
	// remains the stepping quantum and the policies' assumed duration.
	InstrWindow int64
	// Thermal enables temperature-dependent leakage accounting (§5):
	// each domain carries a lumped-RC temperature that power feeds and
	// leakage reads. Nil disables it (leakage at nominal temperature).
	Thermal *power.Thermal
	// Metrics, when non-nil, receives run telemetry (epoch counters,
	// stall accounting, prediction error, oracle fork costs — see
	// internal/telemetry). Recording never alters run results; with a
	// nil registry the instrumentation reduces to per-epoch nil checks.
	Metrics *telemetry.Registry
	// Ctx, when non-nil, is polled at every epoch boundary: once it is
	// cancelled the run stops and returns the partial Result together
	// with the context's error. This is how batch orchestration winds
	// down in-flight simulations on fail-fast, per-job timeout, or
	// SIGINT without waiting out the epoch sweep; a nil Ctx costs one
	// nil check per epoch.
	Ctx context.Context
	// Chaos configures deterministic fault injection (sensor noise and
	// drops, transition failures and jitter, PC-signature corruption)
	// for this run. The zero value injects nothing and leaves the run
	// byte-identical to an un-instrumented one.
	Chaos chaos.Config
	// MaxCycles bounds the run's total CU cycle events as a cooperative
	// watchdog (0 = unbounded). A run that exhausts the budget — or
	// stops making progress entirely — terminates with a wrapped
	// *sim.DeadlockError instead of hanging.
	MaxCycles int64
}

// Result summarizes one run.
type Result struct {
	Policy    string
	Objective string
	// Totals feeds EDP/ED²P computation. TimeS is completion time (or
	// the cap, if Truncated).
	Totals metrics.RunTotals
	// Truncated reports the run hit MaxTime before the app finished.
	Truncated bool
	Epochs    int
	// Accuracy is the mean §6.1 prediction accuracy across domain-epochs
	// (NaN-free: zero when the policy does not predict).
	Accuracy  float64
	AccuracyN int64
	// Residency[k] is the fraction of domain-time spent at state k
	// (Fig. 16).
	Residency []float64
	// Transitions counts V/f transitions across domains.
	Transitions int64
	// FinalTempC holds the per-domain node temperatures at run end when
	// thermal accounting is enabled (nil otherwise).
	FinalTempC []float64
	// Chaos reports the faults injected during the run (zero when fault
	// injection is disabled).
	Chaos chaos.Stats
}

// RunJob is the job-shaped entry point batch orchestration uses: both
// the GPU and the policy are constructed inside the call, so a job can
// be described by pure factories and executed on any worker goroutine
// without the caller pre-building (and accidentally sharing) mutable
// simulator or policy state across jobs.
func RunJob(build func() (*sim.GPU, error), newPol func() Policy, cfg RunConfig) (Result, error) {
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("dvfs: job cancelled before start: %w", err)
		}
	}
	g, err := build()
	if err != nil {
		return Result{}, fmt.Errorf("dvfs: building GPU: %w", err)
	}
	return Run(g, newPol(), cfg)
}

// Run executes the application loaded in g to completion under the given
// policy. g must be freshly constructed; it is consumed by the run.
func Run(g *sim.GPU, pol Policy, cfg RunConfig) (Result, error) {
	if cfg.Epoch <= 0 {
		return Result{}, fmt.Errorf("dvfs: epoch %d", cfg.Epoch)
	}
	if cfg.Obj == nil || cfg.PM == nil {
		return Result{}, fmt.Errorf("dvfs: objective and power model are required")
	}
	if err := cfg.Chaos.Validate(); err != nil {
		return Result{}, fmt.Errorf("dvfs: %w", err)
	}
	if cfg.MaxCycles < 0 {
		return Result{}, fmt.Errorf("dvfs: max cycles %d < 0", cfg.MaxCycles)
	}
	if cfg.MaxCycles > 0 {
		g.Cfg.MaxCycles = cfg.MaxCycles
	}
	maxTime := cfg.MaxTime
	if maxTime == 0 {
		maxTime = 100 * clock.Millisecond
	}
	trans := cfg.Transition
	if trans == 0 {
		trans = clock.TransitionLatency(cfg.Epoch)
	}
	grid := g.Cfg.Grid
	dmap := g.Cfg.Domains
	nd := dmap.NumDomains()
	k := grid.Count()
	simds := g.Cfg.SIMDsPerCU

	ctx := &Context{
		G:           g,
		Grid:        grid,
		DMap:        dmap,
		Epoch:       cfg.Epoch,
		OccPerInstr: make([]float64, nd),
		PredictE: func(d int, f clock.Freq, predI float64) float64 {
			return cfg.PM.PredictEpochEnergyJ(f, predI, dmap.CUsPerDomain, simds, cfg.Epoch) +
				cfg.PM.UncoreShareJ(cfg.Epoch, nd)
		},
	}

	tm := newRunTelemetry(cfg.Metrics)
	if tm != nil {
		ctx.ObjEvals = tm.objEvals
		ctx.Sanitized = tm.sanitized
	}
	var ch *chaos.Engine
	if cfg.Chaos.Enabled() {
		ch = chaos.NewEngine(cfg.Chaos)
		ctx.Chaos = ch
	}
	if hp, ok := pol.(*Hardened); ok {
		hp.bindTelemetry(cfg.Metrics)
	}

	var sampler *oracle.Sampler
	if pol.Truth() != NoTruth {
		sampler = &oracle.Sampler{
			Grid:      grid,
			PM:        cfg.PM,
			CollectWF: pol.Truth() == WFTruth,
			Samples:   cfg.OracleSamples,
		}
		if tm != nil {
			sampler.Metrics = tm.oracleBundle
		}
	}

	pol.Reset()
	pred := make([][]float64, nd)
	for d := range pred {
		pred[d] = make([]float64, k)
	}
	choice := make([]int, nd)
	res := Result{
		Policy:    pol.Name(),
		Objective: cfg.Obj.Name(),
		Residency: make([]float64, k),
	}
	// The run span rides cfg.Ctx (nil-safe: untraced runs get a nil span
	// whose methods no-op). Attributes land at End so the span reports
	// final epoch/transition counts on every exit path.
	_, runSpan := tracing.Start(cfg.Ctx, "dvfs.run",
		tracing.String("policy", pol.Name()),
		tracing.String("objective", cfg.Obj.Name()))
	defer func() {
		if runSpan == nil {
			return
		}
		runSpan.SetAttr("epochs", fmt.Sprint(res.Epochs))
		runSpan.SetAttr("transitions", fmt.Sprint(res.Transitions))
		runSpan.SetAttr("truncated", fmt.Sprint(res.Truncated))
		runSpan.End()
	}()
	var temps []float64
	if cfg.Thermal != nil {
		temps = make([]float64, nd)
		for d := range temps {
			temps[d] = cfg.Thermal.AmbientC
		}
	}
	var (
		elapsed   *sim.EpochSample
		sampleBuf sim.EpochSample
		prevTruth *oracle.Truth
		acc       metrics.Welford
		energy    float64
		domTime   float64
	)

	for !g.Finished && g.Now < maxTime {
		if cfg.Ctx != nil {
			select {
			case <-cfg.Ctx.Done():
				res.Truncated = true
				return res, fmt.Errorf("dvfs: run cancelled after %d epochs: %w", res.Epochs, cfg.Ctx.Err())
			default:
			}
		}
		if sampler != nil {
			ctx.NextTruth = sampler.SampleNext(g, cfg.Epoch)
		}
		ctx.PrevTruth = prevTruth
		// Policies observe the elapsed epoch through the fault injector;
		// the runner's own accounting below stays on the real sample.
		observed := elapsed
		if ch != nil && elapsed != nil {
			observed = ch.PerturbEpoch(elapsed)
		}
		pol.Decide(ctx, observed, cfg.Obj, pred, choice)
		for d := 0; d < nd; d++ {
			f := grid.State(choice[d])
			if ch != nil && f != g.Domains[d].Freq {
				// Draw actuation faults only for real changes, so the
				// fault stream does not depend on how often a policy
				// re-requests its current operating point.
				fail, extra := ch.Transition(trans)
				g.SetDomainFreqOutcome(d, f, trans+extra, fail)
			} else {
				g.SetDomainFreq(d, f, trans)
			}
		}

		if cfg.InstrWindow > 0 {
			target := g.TotalCommitted + cfg.InstrWindow
			guard := g.Now + 8*cfg.Epoch
			step := cfg.Epoch / 8
			if step < 1 {
				step = 1
			}
			for !g.Finished && g.Stuck == nil && g.TotalCommitted < target && g.Now < guard && g.Now < maxTime {
				g.RunUntil(g.Now + step)
			}
		} else {
			g.RunUntil(g.Now + cfg.Epoch)
		}
		if g.Stuck != nil {
			res.Truncated = true
			res.Chaos = ch.Stats()
			tm.recordDeadlock()
			tm.recordChaos(res.Chaos)
			return res, fmt.Errorf("dvfs: run stuck after %d epochs: %w", res.Epochs, g.Stuck)
		}
		g.CollectEpoch(&sampleBuf)
		elapsed = &sampleBuf
		tm.recordEpoch(&sampleBuf)
		dur := sampleBuf.End - sampleBuf.Start
		partial := g.Finished && dur < cfg.Epoch && cfg.InstrWindow == 0
		if cfg.InstrWindow > 0 {
			partial = g.Finished
		}

		var tev *trace.EpochEvent
		if cfg.Trace != nil {
			tev = &trace.EpochEvent{
				Index:   res.Epochs,
				StartPs: int64(sampleBuf.Start),
				EndPs:   int64(sampleBuf.End),
				Domains: make([]trace.DomainEvent, nd),
			}
		}

		for d := 0; d < nd; d++ {
			var committed, issue, occPs int64
			lo, hi := dmap.CUs(d)
			for cu := lo; cu < hi; cu++ {
				committed += sampleBuf.CUs[cu].C.Committed
				issue += sampleBuf.CUs[cu].C.IssueSlots
				occPs += sampleBuf.CUs[cu].C.OccupancyPs
			}
			if committed > 0 {
				period := float64(grid.State(choice[d]).PeriodPs())
				ctx.OccPerInstr[d] = float64(occPs) / period / float64(committed)
			}
			var e float64
			if cfg.Thermal != nil {
				var perCU float64
				e, perCU = cfg.PM.DomainEpochEnergyJAt(grid.State(choice[d]), issue,
					dmap.CUsPerDomain, simds, dur, temps[d], *cfg.Thermal)
				temps[d] = cfg.Thermal.Step(temps[d], perCU, dur)
			} else {
				e = cfg.PM.DomainEpochEnergyJ(grid.State(choice[d]), issue, dmap.CUsPerDomain, simds, dur)
			}
			energy += e
			res.Residency[choice[d]] += float64(dur)
			domTime += float64(dur)
			// Idle domains (no work and none predicted) are excluded:
			// a trivially correct 0≈0 would dilute the metric.
			if pol.Predicts() && res.Epochs > 0 && !partial {
				if committed > 0 || pred[d][choice[d]] >= 1 {
					acc.Add(metrics.PredAccuracy(pred[d][choice[d]], float64(committed)))
				}
				tm.recordPrediction(pred[d][choice[d]], float64(committed))
			}
			if tev != nil {
				tev.Domains[d] = trace.DomainEvent{
					Domain:  d,
					FreqMHz: int(grid.State(choice[d])),
					PredI:   pred[d][choice[d]],
					ActualI: float64(committed),
					EnergyJ: e,
				}
			}
		}
		if tev != nil {
			if err := cfg.Trace.Epoch(*tev); err != nil {
				return res, fmt.Errorf("dvfs: trace recorder: %w", err)
			}
		}
		prevTruth = ctx.NextTruth
		res.Epochs++
		// Epoch-batched trace events: one instant per 1024 epochs keeps
		// the hot loop at a single nil check when tracing is off.
		if runSpan != nil && res.Epochs&1023 == 0 {
			runSpan.Event("epochs", tracing.Int("n", int64(res.Epochs)))
		}
	}

	res.Truncated = !g.Finished
	for d := range g.Domains {
		res.Transitions += g.Domains[d].Transitions
	}
	energy += cfg.PM.UncoreEnergyJ(g.Now)
	energy += cfg.PM.TransitionEnergyJ(res.Transitions)
	res.Totals = metrics.RunTotals{
		EnergyJ:   energy,
		TimeS:     float64(g.Now) * 1e-12,
		Committed: g.TotalCommitted,
	}
	res.Accuracy = acc.Mean
	res.AccuracyN = acc.N
	res.FinalTempC = temps
	res.Chaos = ch.Stats()
	tm.recordRunEnd(g, pol, res.Transitions)
	tm.recordChaos(res.Chaos)
	if domTime > 0 {
		for i := range res.Residency {
			res.Residency[i] /= domTime
		}
	}
	return res, nil
}
