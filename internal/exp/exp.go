// Package exp regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its implementing modules). Each
// Figure* / Table* method of Suite returns a Table whose rows mirror what
// the paper plots; the pcstall-exp CLI and the repository's top-level
// benchmarks print them.
//
// Results are cached within a Suite: Figs. 14/15/16 share the same runs,
// and all characterization figures share the same sensitivity traces.
package exp

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"time"

	"pcstall/internal/chaos"
	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/estimate"
	"pcstall/internal/metrics"
	"pcstall/internal/oracle"
	"pcstall/internal/orchestrate"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/telemetry"
	"pcstall/internal/workload"
)

// Config scales the experiment platform. The paper's full platform is 64
// CUs; the default here is smaller so the complete figure set regenerates
// in minutes. All comparisons are within-configuration, so trends are
// preserved (DESIGN.md §5).
type Config struct {
	// CUs is the GPU size.
	CUs int
	// Scale multiplies workload durations.
	Scale float64
	// Seed drives workload synthesis and simulation randomness.
	Seed uint64
	// Apps restricts the workload set (nil = all 16).
	Apps []string
	// TraceEpochs bounds characterization traces (#epochs sampled).
	TraceEpochs int
	// MaxTime caps each run's simulated time.
	MaxTime clock.Time
	// Workers bounds concurrently executing simulation jobs (0 =
	// runtime.NumCPU(), 1 = strictly serial). Results are deterministic
	// and byte-identical at any worker count: every job is a pure
	// function of its description, and tables aggregate in job order.
	Workers int
	// CacheDir persists run results as JSONL so re-running the harness
	// skips already-computed cells ("" = in-memory sharing only).
	CacheDir string
	// NoCache disables the disk cache (in-process run sharing stays on).
	NoCache bool
	// Progress, when non-nil, receives periodic orchestrator snapshots.
	Progress func(orchestrate.Stats)
	// ProgressEvery sets the snapshot period (default 2s).
	ProgressEvery time.Duration
	// Ctx, when non-nil, is the campaign's cancellation signal: once it
	// is cancelled, queued simulation jobs are abandoned and in-flight
	// ones wind down at their next epoch boundary. Figure methods then
	// surface the cancellation by panicking with an error satisfying
	// errors.Is(err, context.Canceled) — the CLI recovers it, drains,
	// and flushes the manifest so -resume can finish the campaign.
	Ctx context.Context
	// JobTimeout bounds each simulation attempt (0 = no bound).
	JobTimeout time.Duration
	// Retries retries failed simulation attempts (transient faults) with
	// doubling backoff; panics and cancellations are never retried.
	Retries int
	// Metrics, when non-nil, turns on campaign telemetry (see
	// internal/telemetry): live orchestration counters land here, each
	// job's private snapshot is merged in when it settles, and manifests
	// carry per-job metric snapshots. Recording never alters results.
	Metrics *telemetry.Registry
	// Chaos, when non-empty, is a canonical fault-injection spec
	// (chaos.Parse syntax) applied to every job of the campaign. Chaos
	// participates in job keys, so faulty and fault-free results never
	// share cache entries.
	Chaos string
	// MaxCycles bounds each run's CU cycles; the watchdog stops runs
	// that exhaust it (0 = unbounded).
	MaxCycles int64
	// Log, when non-nil, receives the orchestrator's structured job
	// logs (settlements and retries, correlated by trace ID when the
	// campaign context carries a tracer).
	Log *slog.Logger
	// RunVia, when non-nil, intercepts job execution: it receives the
	// Suite's in-process executor plus a peek into the Suite's result
	// cache and returns the RunFunc the orchestrator actually drives
	// (internal/dist binds fleet dispatch here). The returned function
	// still settles through the normal orchestrator path, so the disk
	// cache, manifests, retries, and -resume behave identically whether
	// jobs run locally or on a fleet.
	RunVia func(local orchestrate.RunFunc, cached func(key string) (*dvfs.Result, bool)) orchestrate.RunFunc
}

// DefaultConfig returns the default scaled platform.
func DefaultConfig() Config {
	return Config{
		CUs:         8,
		Scale:       1.0,
		Seed:        1,
		TraceEpochs: 64,
		MaxTime:     20 * clock.Millisecond,
	}
}

// Table is one regenerated table or figure: formatted rows plus the raw
// numeric matrix (aligned with Rows) for programmatic checks.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Data[i] holds the numeric cells of Rows[i] (label columns
	// excluded).
	Data  [][]float64
	Notes []string
}

// AddRow appends a labeled numeric row, formatting values with prec
// decimal places.
func (t *Table) AddRow(label string, prec int, vals ...float64) {
	row := []string{label}
	for _, v := range vals {
		row = append(row, fmt.Sprintf("%.*f", prec, v))
	}
	t.Rows = append(t.Rows, row)
	t.Data = append(t.Data, append([]float64(nil), vals...))
}

// Row returns the numeric row with the given label, or nil.
func (t *Table) Row(label string) []float64 {
	for i, r := range t.Rows {
		if r[0] == label {
			return t.Data[i]
		}
	}
	return nil
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Suite runs experiments with caching. Create with NewSuite. Suite
// methods are not safe for concurrent use (call figures from one
// goroutine); internally each figure shards its runs across the
// orchestrator's worker pool, and everything a worker touches — the
// job executor, the power model, the design/workload registries — is
// either immutable after construction or owned by the job.
type Suite struct {
	Cfg Config
	// PM is the shared power model. It is read-only during runs: worker
	// goroutines call its pure methods concurrently.
	PM power.Model

	orch *orchestrate.Orchestrator
	// ctx is the campaign context every RunJobs batch runs under
	// (Config.Ctx, defaulted to Background).
	ctx context.Context
	// traces is main-goroutine-only memoization for the characterization
	// substrate (Figures 5-11); traced sampling stays serial.
	traces map[traceKey]*trace
}

// NewSuite builds a Suite for the configuration. It panics if the cache
// directory cannot be created (callers with fallible setups should
// pre-create Config.CacheDir).
func NewSuite(cfg Config) *Suite {
	if cfg.CUs == 0 {
		// Adopt the default platform but keep the caller's orchestration
		// knobs — a zero-CUs config with Workers/CacheDir set must not
		// silently lose them.
		d := DefaultConfig()
		d.Workers, d.CacheDir, d.NoCache = cfg.Workers, cfg.CacheDir, cfg.NoCache
		d.Progress, d.ProgressEvery = cfg.Progress, cfg.ProgressEvery
		d.Metrics = cfg.Metrics
		d.Ctx, d.JobTimeout, d.Retries = cfg.Ctx, cfg.JobTimeout, cfg.Retries
		d.Chaos, d.MaxCycles = cfg.Chaos, cfg.MaxCycles
		d.RunVia = cfg.RunVia
		cfg = d
	}
	if len(cfg.Apps) == 0 {
		cfg.Apps = workload.Names()
	}
	if cfg.TraceEpochs == 0 {
		cfg.TraceEpochs = 64
	}
	if cfg.MaxTime == 0 {
		cfg.MaxTime = 20 * clock.Millisecond
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	s := &Suite{
		Cfg:    cfg,
		PM:     power.DefaultModelFor(cfg.CUs),
		ctx:    cfg.Ctx,
		traces: map[traceKey]*trace{},
	}
	if s.ctx == nil {
		s.ctx = context.Background()
	}
	run := orchestrate.RunFunc(s.execJob)
	if cfg.RunVia != nil {
		// The cache peek closes over s: s.orch exists before any job
		// runs, and Cached is safe concurrent with the worker pool.
		run = cfg.RunVia(run, func(key string) (*dvfs.Result, bool) {
			return s.orch.Cached(key)
		})
	}
	orch, err := orchestrate.New(orchestrate.Config{
		Workers:       cfg.Workers,
		CacheDir:      cfg.CacheDir,
		NoCache:       cfg.NoCache,
		Run:           run,
		JobTimeout:    cfg.JobTimeout,
		Retries:       cfg.Retries,
		Progress:      cfg.Progress,
		ProgressEvery: cfg.ProgressEvery,
		Metrics:       cfg.Metrics,
		Log:           cfg.Log,
	})
	if err != nil {
		panic(fmt.Sprintf("exp: orchestrator: %v", err))
	}
	s.orch = orch
	return s
}

// Close flushes the result cache and stops the progress loop. The Suite
// remains usable for in-memory work afterwards.
func (s *Suite) Close() error { return s.orch.Close() }

// Stats snapshots orchestration progress and cache accounting.
func (s *Suite) Stats() orchestrate.Stats { return s.orch.Stats() }

// WriteManifest writes the campaign's run manifest (job list, hashes,
// timings, cache hits/misses, worker count) as JSON to path.
func (s *Suite) WriteManifest(path string) error { return s.orch.WriteManifest(path) }

// Manifest snapshots the campaign's run manifest in memory — the same
// record WriteManifest serializes, including each job's provenance
// (run / disk / remote:<backend> / local-fallback).
func (s *Suite) Manifest() *orchestrate.Manifest { return s.orch.Manifest() }

// gpuJob returns a dvfs.RunJob build factory for app on the Suite's
// platform at one CU per domain.
func (s *Suite) gpuJob(app string) func() (*sim.GPU, error) {
	return func() (*sim.GPU, error) { return s.gpuScaled(app, 1, s.Cfg.Scale), nil }
}

// gpuScaled builds a GPU with an explicit workload duration scale
// (long-epoch traces need apps that outlive the sampled window).
func (s *Suite) gpuScaled(app string, cusPerDomain int, scale float64) *sim.GPU {
	return buildGPU(app, s.Cfg.CUs, cusPerDomain, s.Cfg.Seed, scale)
}

// buildGPU constructs a fresh simulator purely from scalar parameters,
// so job executors on worker goroutines share no state with the Suite.
func buildGPU(app string, cus, cusPerDomain int, seed uint64, scale float64) *sim.GPU {
	cfg := sim.DefaultConfig(cus)
	cfg.Seed = seed
	cfg.Domains.CUsPerDomain = cusPerDomain
	gen := workload.DefaultGenConfig(cus)
	gen.Scale = scale
	gen.Seed = seed + 6
	a := workload.MustBuild(app, gen)
	g, err := sim.New(cfg, a.Kernels, a.Launches)
	if err != nil {
		panic(fmt.Sprintf("exp: building %s: %v", app, err))
	}
	return g
}

// cell identifies one run a figure needs: the in-repo shorthand that
// expands to an orchestrate.Job on the Suite's platform.
type cell struct {
	app, design string
	epoch       clock.Time
	obj         string
	cusDom      int
	samples     int
}

// job expands a cell with the Suite's platform parameters.
func (s *Suite) job(c cell) orchestrate.Job {
	return orchestrate.Job{
		App:           c.app,
		Design:        c.design,
		EpochPs:       int64(c.epoch),
		Objective:     c.obj,
		CUsPerDomain:  c.cusDom,
		CUs:           s.Cfg.CUs,
		Scale:         s.Cfg.Scale,
		Seed:          s.Cfg.Seed,
		MaxTimePs:     int64(s.Cfg.MaxTime),
		OracleSamples: c.samples,
		Chaos:         s.Cfg.Chaos,
		MaxCycles:     s.Cfg.MaxCycles,
		SimVersion:    orchestrate.SimVersion,
	}
}

// prefetch computes a batch of cells across the worker pool. Later
// Suite.run calls for the same cells are in-memory hits, so figure
// construction keeps its original (deterministic, serial) shape while
// the simulations themselves run in parallel.
func (s *Suite) prefetch(cells []cell) {
	if len(cells) == 0 {
		return
	}
	jobs := make([]orchestrate.Job, len(cells))
	for i, c := range cells {
		jobs[i] = s.job(c)
	}
	if _, err := s.orch.RunJobs(s.ctx, jobs); err != nil {
		panic(err)
	}
}

// execJob is the orchestrator's RunFunc: a pure function of the job
// (plus the read-only power model), safe on any worker goroutine. ctx
// is the job's cancellation signal, checked at every epoch boundary of
// the run. reg is the job's private telemetry sink (nil when telemetry
// is off); recording into it never changes the result.
func (s *Suite) execJob(ctx context.Context, j orchestrate.Job, reg *telemetry.Registry) (*dvfs.Result, error) {
	d, err := core.DesignByName(j.Design)
	if err != nil {
		return nil, err
	}
	obj, err := ObjectiveByName(j.Objective)
	if err != nil {
		return nil, err
	}
	chaosCfg, err := chaos.Parse(j.Chaos)
	if err != nil {
		return nil, err
	}
	epoch := clock.Time(j.EpochPs)
	// Long-epoch runs need long apps: at 100µs epochs an unscaled app
	// finishes in a couple of decisions, telling us nothing about the
	// policy. The paper's apps run far longer than the largest epoch;
	// the boost is capped to keep oracle-sampled sweeps tractable. The
	// boost is derived from the job alone, so cached results stay valid.
	scale := j.Scale
	if boost := float64(epoch) / float64(8*clock.Microsecond); boost > 1 {
		if boost > 12 {
			boost = 12
		}
		scale *= boost
	}
	res, err := dvfs.RunJob(func() (*sim.GPU, error) {
		return buildGPU(j.App, j.CUs, j.CUsPerDomain, j.Seed, scale), nil
	}, d.New, dvfs.RunConfig{
		Epoch:         epoch,
		Obj:           obj,
		PM:            &s.PM,
		MaxTime:       clock.Time(j.MaxTimePs),
		OracleSamples: j.OracleSamples,
		Chaos:         chaosCfg,
		MaxCycles:     j.MaxCycles,
		Metrics:       reg,
		Ctx:           ctx,
	})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// ObjectiveByName inverts Objective.Name for the objectives the harness
// uses (job descriptions carry objectives as canonical strings so they
// can be hashed and persisted). The serving layer validates request
// objectives through it, so a name that parses here is exactly one the
// job executor will accept.
func ObjectiveByName(name string) (dvfs.Objective, error) {
	switch name {
	case "EDP":
		return dvfs.EDP, nil
	case "ED2P":
		return dvfs.ED2P, nil
	}
	var n int
	if c, err := fmt.Sscanf(name, "ED%dP", &n); c == 1 && err == nil {
		return dvfs.EDnP{N: n}, nil
	}
	var pct float64
	if c, err := fmt.Sscanf(name, "Energy@%f%%", &pct); c == 1 && err == nil {
		// Only round-percent limits (the paper's 5%/10%) survive the
		// Name() round-trip; FixedPerf formats with %.0f.
		return dvfs.FixedPerf{Limit: pct / 100}, nil
	}
	var floor float64
	if c, err := fmt.Sscanf(name, "QoS@%f", &floor); c == 1 && err == nil {
		return dvfs.QoSTarget{InstrPerEpoch: floor}, nil
	}
	return nil, fmt.Errorf("exp: unknown objective %q", name)
}

// run executes (and caches) one app × design × epoch × objective run.
func (s *Suite) run(app, design string, epoch clock.Time, obj dvfs.Objective, cusPerDomain int) *dvfs.Result {
	return s.runSampled(app, design, epoch, obj, cusPerDomain, 0)
}

// runSampled is run with an explicit oracle fork-sample override.
func (s *Suite) runSampled(app, design string, epoch clock.Time, obj dvfs.Objective, cusPerDomain, samples int) *dvfs.Result {
	rs, err := s.orch.RunJobs(s.ctx, []orchestrate.Job{
		s.job(cell{app, design, epoch, obj.Name(), cusPerDomain, samples}),
	})
	if err != nil {
		panic(err)
	}
	return rs[0]
}

// normED returns design's EDⁿP normalized to the static mid-frequency
// baseline for one app.
func (s *Suite) normED(app, design string, epoch clock.Time, n int, cusPerDomain int) float64 {
	obj := dvfs.EDnP{N: n}
	base := s.run(app, "STATIC-1700", epoch, obj, cusPerDomain).Totals.EDnP(n)
	v := s.run(app, design, epoch, obj, cusPerDomain).Totals.EDnP(n)
	if base == 0 {
		return 0
	}
	return v / base
}

// apps returns the configured workload list.
func (s *Suite) apps() []string { return s.Cfg.Apps }

// geomeanOver maps f over the configured apps and returns the geometric
// mean.
func (s *Suite) geomeanOver(f func(app string) float64) float64 {
	vals := make([]float64, 0, len(s.Cfg.Apps))
	for _, a := range s.Cfg.Apps {
		vals = append(vals, f(a))
	}
	return metrics.Geomean(vals)
}

// meanOver maps f over the configured apps and returns the mean.
func (s *Suite) meanOver(f func(app string) float64) float64 {
	sum := 0.0
	for _, a := range s.Cfg.Apps {
		sum += f(a)
	}
	return sum / float64(len(s.Cfg.Apps))
}

// ---------------------------------------------------------------------------
// Sensitivity traces (characterization substrate)

// wfSens is one wavefront's sampled sensitivity in one epoch.
type wfSens struct {
	CU         int32
	GlobalWave int64
	AgeRank    int32
	StartPC    uint64
	Sens       float64
}

// trace is a static-frequency run sampled by the oracle every epoch.
type trace struct {
	epoch clock.Time
	// sens[e][d] is domain d's true sensitivity in epoch e.
	sens [][]float64
	// r2[e][d] is the linearity of the I(f) curve.
	r2 [][]float64
	// curves[e][d][k] holds full per-state instruction counts for the
	// first few epochs (Fig. 5).
	curves [][][]float64
	// wf[e] lists per-wavefront sensitivities (when collected).
	wf [][]wfSens
}

type traceKey struct {
	app     string
	epoch   clock.Time
	withWF  bool
	nEpochs int
}

// trace samples a static mid-frequency run of app with the oracle at
// every epoch boundary, for up to nEpochs epochs. For epochs longer than
// a few microseconds the workload is scaled up so it outlives the
// sampled window (otherwise variation statistics starve on the app's
// final partial epochs).
func (s *Suite) trace(app string, epoch clock.Time, nEpochs int, withWF bool) *trace {
	key := traceKey{app, epoch, withWF, nEpochs}
	if t, ok := s.traces[key]; ok {
		return t
	}
	scale := s.Cfg.Scale
	if boost := float64(epoch) / float64(clock.Microsecond); boost > 1 {
		// Scale the workload so individual kernels span several epochs
		// even at the longest epoch; otherwise every epoch straddles a
		// kernel-launch boundary and variation is artificially maximal.
		scale *= boost
	}
	// Long-epoch traces cost nEpochs*epoch*K clones regardless of app
	// length; bound the sampled window so the sweep stays tractable.
	if epoch >= 10*clock.Microsecond && nEpochs > 10 {
		nEpochs = 10
		key.nEpochs = nEpochs
		if t, ok := s.traces[key]; ok {
			return t
		}
	}
	g := s.gpuScaled(app, 1, scale)
	// The loop drives the GPU directly rather than through dvfs.RunJob,
	// so it hands the GPU's cache arrays back to the pools itself.
	defer g.Release()
	grid := g.Cfg.Grid
	smp := &oracle.Sampler{Grid: grid, PM: &s.PM}
	tr := &trace{epoch: epoch}
	const keepCurves = 8
	for e := 0; e < nEpochs && !g.Finished && g.Stuck == nil && g.Now < s.Cfg.MaxTime; e++ {
		truth := smp.SampleNext(g, epoch)
		nd := len(truth.I)
		sens := make([]float64, nd)
		r2 := make([]float64, nd)
		for d := 0; d < nd; d++ {
			sens[d], r2[d] = truth.Slope(grid, d)
		}
		tr.sens = append(tr.sens, sens)
		tr.r2 = append(tr.r2, r2)
		if e < keepCurves {
			cp := make([][]float64, nd)
			for d := range cp {
				cp[d] = append([]float64(nil), truth.I[d]...)
			}
			tr.curves = append(tr.curves, cp)
		}
		// Advance the parent run one epoch at the static mid frequency.
		g.RunUntil(g.Now + epoch)
		var es sim.EpochSample
		g.CollectEpoch(&es)
		if withWF {
			// Per-wavefront sensitivities come from the deterministic
			// wavefront-STALL estimate of the executed epoch, not from
			// per-wave regression over the shuffled forks: a single
			// wave's sampled slope is noise-floored by cross-domain
			// interference (10 points, 10 different neighbour mixes),
			// which would read as unpredictability in Figs. 10/11.
			wcfg := estimate.DefaultWFStall()
			var ws []wfSens
			for cu := range es.CUs {
				ce := &es.CUs[cu]
				d := g.Cfg.Domains.DomainOf(cu)
				bf := estimate.BarrierStallFrac(ce.WFs)
				n := len(ce.WFs)
				for i := range ce.WFs {
					rec := &ce.WFs[i]
					est := wcfg.EstimateWF(rec, int64(epoch), es.Freqs[d], grid, n, bf)
					ws = append(ws, wfSens{
						CU:         int32(cu),
						GlobalWave: rec.GlobalWave,
						AgeRank:    rec.AgeRank,
						StartPC:    rec.StartPC,
						Sens:       est.Slope,
					})
				}
			}
			sort.Slice(ws, func(a, b int) bool {
				if ws[a].CU != ws[b].CU {
					return ws[a].CU < ws[b].CU
				}
				return ws[a].GlobalWave < ws[b].GlobalWave
			})
			tr.wf = append(tr.wf, ws)
		}
	}
	s.traces[key] = tr
	return tr
}

// meanRelChange computes the mean relative change between consecutive
// per-domain sensitivities of a trace. The denominator is floored at the
// domain's mean |sensitivity| so that near-zero-sensitivity (deeply
// memory-bound) phases don't register sampling noise as 100% swings.
func (t *trace) meanRelChange() float64 {
	if len(t.sens) < 2 {
		return 0
	}
	nd := len(t.sens[0])
	floor := make([]float64, nd)
	for e := range t.sens {
		for d := range t.sens[e] {
			floor[d] += abs(t.sens[e][d])
		}
	}
	for d := range floor {
		floor[d] /= float64(len(t.sens))
	}
	var w metrics.Welford
	for e := 1; e < len(t.sens); e++ {
		for d := range t.sens[e] {
			a, b := t.sens[e-1][d], t.sens[e][d]
			den := max3(abs(a), abs(b), floor[d])
			if den < 1e-12 {
				continue
			}
			r := abs(b-a) / den
			if r > 1 {
				r = 1
			}
			w.Add(r)
		}
	}
	return w.Mean
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// meanR2 returns the average R² of the per-epoch I(f) fits over
// domain-epochs doing meaningful work. Near-idle epochs (dispatch ramps,
// straggler tails) commit a few dozen noise-dominated instructions and
// would swamp the statistic the paper computes over its sampled working
// epochs.
func (t *trace) meanR2() float64 {
	var w metrics.Welford
	for e := range t.r2 {
		for d := range t.r2[e] {
			// R² is only meaningful where there is slope to explain:
			// a memory-bound epoch's near-constant curve has (noise)
			// variance but no signal, and a near-idle epoch has
			// neither. The paper's statistic is over its sampled
			// working epochs (Fig. 5 plots exactly such epochs).
			if abs(t.sens[e][d]) <= 0.05 {
				continue
			}
			if len(t.curves) > e && t.curves[e][d][len(t.curves[e][d])/2] < 100 {
				continue
			}
			w.Add(t.r2[e][d])
		}
	}
	return w.Mean
}
