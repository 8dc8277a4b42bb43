// Package pcstall is a from-scratch reproduction of "Predict; Don't React
// for Enabling Efficient Fine-Grain DVFS in GPUs" (ASPLOS 2023): a
// cycle-approximate GPU simulator with per-CU voltage/frequency domains, a
// power model, the paper's frequency-sensitivity estimation models, the
// reactive and PC-based predictors (PCSTALL), the fork-pre-execute oracle
// methodology, and synthetic equivalents of the paper's sixteen HPC/MI
// workloads.
//
// This package is the facade for downstream use. A minimal session:
//
//	cfg := pcstall.DefaultConfig(8)             // 8-CU GPU, per-CU V/f domains
//	res, err := pcstall.RunApp("comd", "PCSTALL", cfg)
//	fmt.Println(res.Totals.ED2P(), res.Accuracy)
//
// Designs are the paper's TABLE III names ("STALL", "LEAD", "CRIT",
// "CRISP", "ACCREAC", "PCSTALL", "ACCPC", "ORACLE") plus static baselines
// ("STATIC-1700"). Workloads are the TABLE II names (Workloads lists
// them). The experiment harness behind every figure and table of the paper
// lives in internal/exp and is exposed through the Experiments type.
package pcstall

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"pcstall/internal/chaos"
	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/telemetry"
	"pcstall/internal/trace"
	"pcstall/internal/version"
	"pcstall/internal/workload"
)

// Re-exported result and objective types.
type (
	// Result is one application run's outcome (energy, time, accuracy,
	// frequency residency).
	Result = dvfs.Result
	// Objective selects frequencies given predictions.
	Objective = dvfs.Objective
	// Design describes one TABLE III DVFS design.
	Design = core.Design
	// Freq is a clock frequency in MHz.
	Freq = clock.Freq
	// Time is simulated time in picoseconds.
	Time = clock.Time
	// ChaosConfig is a deterministic fault-injection profile (noisy,
	// stale, or dropped telemetry; failed or jittered V/f transitions;
	// corrupted PC signatures). The zero value injects nothing.
	ChaosConfig = chaos.Config
	// ChaosStats counts the faults a run actually injected.
	ChaosStats = chaos.Stats
	// DeadlockError is the simulation watchdog's structured diagnosis,
	// returned (wrapped) by runs that stop making progress or exhaust
	// their cycle budget. Unwrap with errors.As.
	DeadlockError = sim.DeadlockError
	// TraceCollector keeps a run's per-epoch events in memory (Events).
	TraceCollector = trace.Collector
)

// Common durations, re-exported for configuration convenience.
const (
	Nanosecond  = clock.Nanosecond
	Microsecond = clock.Microsecond
	Millisecond = clock.Millisecond
)

// Objectives from the paper's evaluation (§5.2).
var (
	// EDP minimizes energy-delay product.
	EDP Objective = dvfs.EDP
	// ED2P minimizes energy-delay² product (the headline metric).
	ED2P Objective = dvfs.ED2P
)

// FixedPerf returns the §6.4 objective: minimize energy while staying
// within limit (e.g. 0.05) of the top frequency's predicted performance.
func FixedPerf(limit float64) Objective { return dvfs.FixedPerf{Limit: limit} }

// QoSTarget returns the §5.2 extension objective: minimum energy subject
// to a per-domain work floor of instrPerEpoch predicted instructions.
func QoSTarget(instrPerEpoch float64) Objective {
	return dvfs.QoSTarget{InstrPerEpoch: instrPerEpoch}
}

// Config describes a complete experiment platform: the GPU, the DVFS
// epoch, the objective, and workload scaling.
type Config struct {
	// GPU is the simulated platform. Adjust Domains.CUsPerDomain for the
	// §6.5 granularity study.
	GPU sim.Config
	// Epoch is the fixed DVFS time epoch (§3.1); default 1µs.
	Epoch Time
	// Objective is the frequency-selection goal; default ED²P.
	Objective Objective
	// Power is the energy model; defaults to DefaultModelFor(NumCUs).
	Power *power.Model
	// Scale multiplies workload durations (1.0 ≈ 60-200µs per app).
	Scale float64
	// MaxTime caps simulated time per run (safety; default 100ms).
	MaxTime Time
	// Trace, when non-nil, receives one event per epoch (see
	// NewJSONLTrace, NewCSVTrace and TraceCollector).
	Trace trace.Recorder
	// Thermal enables temperature-dependent leakage (§5); nil keeps
	// leakage at the nominal temperature.
	Thermal *power.Thermal
	// Metrics, when non-nil, receives run telemetry (epoch counters,
	// stall accounting, prediction error — see internal/telemetry).
	// Recording never alters results; nil costs nothing on hot paths.
	Metrics *Metrics
	// Ctx, when non-nil, cancels the run at the next epoch boundary: the
	// run returns its partial Result (Truncated set) and a wrapped
	// context error. nil means the run cannot be interrupted.
	Ctx context.Context
	// Chaos injects deterministic sensing/actuation faults into the run
	// (see ParseChaos / ChaosLevel). The zero value injects nothing and
	// leaves results byte-identical to a chaos-free build.
	Chaos ChaosConfig
	// MaxCycles bounds the run's CU cycles; when exhausted (or when the
	// workload deadlocks) the run stops with a wrapped *DeadlockError
	// and a Truncated partial result. 0 = unbounded.
	MaxCycles int64
}

// DefaultConfig returns a platform with numCUs compute units, per-CU V/f
// domains, 1µs epochs, and the ED²P objective.
func DefaultConfig(numCUs int) Config {
	pm := power.DefaultModelFor(numCUs)
	return Config{
		GPU:       sim.DefaultConfig(numCUs),
		Epoch:     Microsecond,
		Objective: ED2P,
		Power:     &pm,
		Scale:     1.0,
	}
}

// Workloads returns the paper's application names in TABLE II order.
func Workloads() []string { return workload.Names() }

// Designs returns the paper's evaluated DVFS designs in TABLE III order.
func Designs() []Design { return core.Designs() }

// StaticDesign returns a fixed-frequency baseline design.
func StaticDesign(f Freq) Design { return core.StaticDesign(f) }

// NewGPU builds a simulator loaded with the named workload, ready for
// RunPolicy or direct driving via the internal packages.
func NewGPU(app string, cfg Config) (*sim.GPU, error) {
	gen := workload.DefaultGenConfig(cfg.GPU.NumCUs)
	if cfg.Scale > 0 {
		gen.Scale = cfg.Scale
	}
	gen.Seed = cfg.GPU.Seed + 6
	a, err := workload.Build(app, gen)
	if err != nil {
		return nil, err
	}
	return sim.New(cfg.GPU, a.Kernels, a.Launches)
}

// RunApp runs one workload to completion under the named design and
// returns its result.
func RunApp(app, design string, cfg Config) (Result, error) {
	d, err := core.DesignByName(design)
	if err != nil {
		return Result{}, err
	}
	return RunDesign(app, d, cfg)
}

// RunDesign is RunApp for an explicit Design value (e.g. a custom-tuned
// PCStall policy wrapped via core.Design).
func RunDesign(app string, d Design, cfg Config) (Result, error) {
	if cfg.Objective == nil {
		cfg.Objective = ED2P
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = Microsecond
	}
	if cfg.Power == nil {
		pm := power.DefaultModelFor(cfg.GPU.NumCUs)
		cfg.Power = &pm
	}
	g, err := NewGPU(app, cfg)
	if err != nil {
		return Result{}, err
	}
	return dvfs.Run(g, d.New(), dvfs.RunConfig{
		Epoch:     cfg.Epoch,
		Obj:       cfg.Objective,
		PM:        cfg.Power,
		MaxTime:   cfg.MaxTime,
		Trace:     cfg.Trace,
		Thermal:   cfg.Thermal,
		Metrics:   cfg.Metrics,
		Ctx:       cfg.Ctx,
		Chaos:     cfg.Chaos,
		MaxCycles: cfg.MaxCycles,
	})
}

// Compare runs several designs on the same workload and returns results
// keyed by design name — the building block of the paper's comparisons.
func Compare(app string, designs []string, cfg Config) (map[string]Result, error) {
	out := make(map[string]Result, len(designs))
	for _, name := range designs {
		r, err := RunApp(app, name, cfg)
		if err != nil {
			return nil, fmt.Errorf("pcstall: running %s under %s: %w", app, name, err)
		}
		out[name] = r
	}
	return out, nil
}

// ParseChaos parses a comma-separated fault-injection spec, e.g.
// "noise=0.1,tfail=0.05,seed=7" or the shorthand "level=0.2" (which
// expands to the proportional profile of ChaosLevel). An empty spec
// yields the zero (disabled) config.
func ParseChaos(spec string) (ChaosConfig, error) { return chaos.Parse(spec) }

// ChaosLevel returns the proportional fault profile at intensity l
// (0 = none): noise=l, drop=stale=l/8, tfail=l/4, jitter=l, pcflip=l/16.
func ChaosLevel(l float64, seed uint64) ChaosConfig { return chaos.Level(l, seed) }

// NewJSONLTrace returns a recorder writing one JSON object per epoch to w.
func NewJSONLTrace(w io.Writer) trace.Recorder { return trace.NewJSONL(w) }

// NewCSVTrace returns a recorder writing one CSV row per (epoch, domain).
func NewCSVTrace(w io.Writer) trace.Recorder { return trace.NewCSV(w) }

// Metrics is a telemetry registry: counters, gauges, and histograms that
// runs record into when attached via Config.Metrics (or
// ExperimentsConfig.Metrics for whole campaigns). Snapshot it for
// machine-readable values, or serve it live with MetricsHandler.
type Metrics = telemetry.Registry

// NewMetrics builds an empty telemetry registry.
func NewMetrics() *Metrics { return telemetry.New() }

// MetricsHandler serves the registry over HTTP: Prometheus text at
// /metrics, expvar JSON at /debug/vars, and pprof under /debug/pprof/.
func MetricsHandler(m *Metrics) http.Handler { return telemetry.Handler(m) }

// Version reports the simulator version (the string that keys the
// result cache) plus the VCS revision stamped into the binary.
func Version() string { return version.String() }

// Experiments exposes the paper-figure regeneration harness.
type Experiments = exp.Suite

// ExperimentsConfig configures the harness: the platform (CUs, Scale,
// Seed, Apps) plus the orchestration knobs — Workers shards independent
// simulation runs across a bounded pool (0 = NumCPU, 1 = serial; results
// are byte-identical at any worker count), CacheDir persists results as
// JSONL so reruns skip already-computed cells, and NoCache forces
// recomputation. Call Experiments.Close when done to flush the cache,
// and Experiments.WriteManifest for the campaign's audit record.
type ExperimentsConfig = exp.Config

// NewExperiments builds the harness; zero-value config selects the scaled
// default platform (exp.DefaultConfig) with NumCPU parallel workers.
func NewExperiments(cfg ExperimentsConfig) *Experiments { return exp.NewSuite(cfg) }
