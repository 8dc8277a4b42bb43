package dvfs

import (
	"math"
	"sort"

	"pcstall/internal/chaos"
	"pcstall/internal/clock"
	"pcstall/internal/estimate"
	"pcstall/internal/oracle"
	"pcstall/internal/predict"
	"pcstall/internal/sim"
	"pcstall/internal/telemetry"
)

// Context is everything a policy may consult at an epoch boundary.
type Context struct {
	G     *sim.GPU
	Grid  clock.Grid
	DMap  clock.Map
	Epoch clock.Time
	// PrevTruth is the fork-pre-execute ground truth for the epoch that
	// just ran; NextTruth for the epoch about to run. Both are nil
	// unless the policy's TruthNeed requests sampling.
	PrevTruth, NextTruth *oracle.Truth
	// PredictE estimates domain d's next-epoch energy at frequency f
	// when committing predI instructions; the runner backs it with the
	// power model.
	PredictE func(d int, f clock.Freq, predI float64) float64
	// OccPerInstr[d] is domain d's measured SIMD occupancy per committed
	// instruction, in cycles (from the elapsed epoch); it bounds how
	// many instructions a predicted curve may promise.
	OccPerInstr []float64
	// ObjEvals, when non-nil, counts objective Choose evaluations (one
	// per domain decision); the runner wires it from RunConfig.Metrics.
	ObjEvals *telemetry.Counter
	// Sanitized, when non-nil, counts non-finite predictions floored by
	// chooseAll's sanity clamp.
	Sanitized *telemetry.Counter
	// Chaos, when non-nil, is the run's fault injector. Policies must
	// read PC signatures through Context.ActivePCs (not G.ActivePCs) so
	// signature corruption applies uniformly.
	Chaos *chaos.Engine

	// states and predE are chooseAll's per-run scratch: the grid's
	// states and one domain's predicted energies, built on first use so
	// steady-state epochs do not allocate.
	states []clock.Freq
	predE  []float64
}

// ActivePCs returns the PC signatures of domain d's resident wavefronts
// as the policy should observe them: the simulator's true PCs, passed
// through the fault injector when one is active.
func (c *Context) ActivePCs(d int, buf []sim.WavePC) []sim.WavePC {
	buf = c.G.ActivePCs(d, buf)
	return c.Chaos.CorruptPCs(buf)
}

// TruthNeed states whether a policy consumes oracle sampling.
type TruthNeed uint8

const (
	// NoTruth: a practical policy using only hardware counters.
	NoTruth TruthNeed = iota
	// DomainTruth: needs per-domain sampled curves (ACCREAC, ORACLE).
	DomainTruth
	// WFTruth: needs per-wavefront sampled curves too (ACCPC).
	WFTruth
)

// Policy predicts next-epoch behaviour per domain. Decide fills
// pred[d][k] (predicted instructions for domain d at state k) and returns
// per-domain chosen state indices; the runner applies the choice,
// executes the epoch, and scores pred against reality.
type Policy interface {
	Name() string
	Truth() TruthNeed
	// Predicts reports whether pred is meaningful (static policies
	// return false and are excluded from accuracy averages).
	Predicts() bool
	Decide(ctx *Context, elapsed *sim.EpochSample, obj Objective, pred [][]float64, choice []int)
	// Reset clears learned state between runs.
	Reset()
}

// chooseAll caps predictions at the domain's physical issue bandwidth and
// applies the objective per domain.
//
// The cap matters because linear sensitivity extrapolation can promise
// more instructions at high frequency than the SIMDs can issue (e.g. a
// barrier-synced compute phase whose waves each scale individually but
// share issue slots); uncapped curves systematically over-buy frequency.
func chooseAll(ctx *Context, obj Objective, pred [][]float64, choice []int) {
	k := ctx.Grid.Count()
	if len(ctx.states) != k {
		ctx.states = ctx.Grid.States()
		ctx.predE = make([]float64, k)
	}
	states, predE := ctx.states, ctx.predE
	cus := ctx.DMap.CUsPerDomain
	simds := ctx.G.Cfg.SIMDsPerCU
	for d := range choice {
		occ := 2.0
		if d < len(ctx.OccPerInstr) && ctx.OccPerInstr[d] > 1 {
			occ = ctx.OccPerInstr[d]
		}
		for s := 0; s < k; s++ {
			cycles := float64(ctx.Epoch) * float64(states[s]) / 1e6
			cap := cycles * float64(simds*cus) / occ
			// NaN compares false against cap, so a poisoned prediction
			// (possible under injected telemetry faults) would sail
			// through the bandwidth clamp and then corrupt the
			// objective's scoring; floor non-finite and negative values.
			if v := pred[d][s]; math.IsNaN(v) || math.IsInf(v, 0) {
				pred[d][s] = 0
				ctx.Sanitized.Inc()
			} else if v < 0 {
				pred[d][s] = 0
			}
			if pred[d][s] > cap {
				pred[d][s] = cap
			}
			predE[s] = ctx.PredictE(d, states[s], pred[d][s])
		}
		choice[d] = obj.Choose(states, pred[d], predE)
		ctx.ObjEvals.Inc()
	}
}

// ---------------------------------------------------------------------------
// Static

// Static runs every domain at a fixed frequency (the paper's baselines at
// 1.3, 1.7, and 2.2 GHz).
type Static struct {
	F clock.Freq
}

// Name implements Policy.
func (p *Static) Name() string { return "STATIC-" + p.F.String() }

// Truth implements Policy.
func (p *Static) Truth() TruthNeed { return NoTruth }

// Predicts implements Policy.
func (p *Static) Predicts() bool { return false }

// Reset implements Policy.
func (p *Static) Reset() {}

// Decide implements Policy.
func (p *Static) Decide(ctx *Context, _ *sim.EpochSample, _ Objective, pred [][]float64, choice []int) {
	k := ctx.Grid.Index(p.F)
	for d := range choice {
		choice[d] = k
	}
}

// ---------------------------------------------------------------------------
// Reactive with a CU-level estimation model (STALL, LEAD, CRIT, CRISP)

// Reactive is the classical last-value predictor: estimate the elapsed
// epoch with a CU-level model and assume the next epoch behaves the same
// (TABLE III's reactive designs).
type Reactive struct {
	Model estimate.CUModel
	buf   []float64
}

// Name implements Policy.
func (p *Reactive) Name() string { return p.Model.Name() }

// Truth implements Policy.
func (p *Reactive) Truth() TruthNeed { return NoTruth }

// Predicts implements Policy.
func (p *Reactive) Predicts() bool { return true }

// Reset implements Policy.
func (p *Reactive) Reset() {}

// Decide implements Policy.
func (p *Reactive) Decide(ctx *Context, elapsed *sim.EpochSample, obj Objective, pred [][]float64, choice []int) {
	k := ctx.Grid.Count()
	if cap(p.buf) < k {
		p.buf = make([]float64, k)
	}
	cuCurve := p.buf[:k]
	for d := range pred {
		for s := range pred[d] {
			pred[d][s] = 0
		}
		if elapsed == nil {
			continue
		}
		dur := int64(elapsed.End - elapsed.Start)
		lo, hi := ctx.DMap.CUs(d)
		for cu := lo; cu < hi; cu++ {
			estimate.PredictCU(p.Model, &elapsed.CUs[cu], dur, elapsed.Freqs[d], ctx.Grid, cuCurve)
			for s := range cuCurve {
				pred[d][s] += cuCurve[s]
			}
		}
	}
	chooseAll(ctx, obj, pred, choice)
}

// ---------------------------------------------------------------------------
// PCSTALL: wavefront-level STALL estimation + PC-indexed prediction

// TableScope selects how PC tables are shared (§4.4 — accuracy is largely
// insensitive to sharing, Fig. 10's granularity study).
type TableScope uint8

const (
	// TablePerCU instantiates one table per CU (the default).
	TablePerCU TableScope = iota
	// TablePerDomain shares one table across each V/f domain.
	TablePerDomain
	// TableGlobal shares a single table GPU-wide.
	TableGlobal
)

// PCStall is the paper's mechanism: each wavefront's elapsed-epoch
// sensitivity (wavefront-level STALL estimate) is stored in a PC-indexed
// table keyed by the epoch's starting PC; at the next boundary every
// resident wavefront looks up its upcoming PC and the per-wavefront
// predictions are summed into the domain prediction (§4.4, Fig. 12).
type PCStall struct {
	Cfg   predict.PCTableConfig
	WFCfg estimate.WFStallConfig
	Scope TableScope
	// Fallback uses the wavefront's own elapsed-epoch estimate on a
	// table miss (a reactive fallback); without it misses predict zero.
	Fallback bool

	tables []*predict.PCTable
	pcBuf  []sim.WavePC
	// fallback maps (cu, slot) to the wavefront's latest elapsed-epoch
	// estimate; Decide refills it every epoch, reusing its buckets.
	fallback map[[2]int32]estimate.WFEstimate
}

// NewPCStall returns the paper-default configuration (per-CU 128-entry
// tables, 4 offset bits, reactive fallback).
func NewPCStall() *PCStall {
	return &PCStall{
		Cfg:      predict.DefaultPCTable(),
		WFCfg:    estimate.DefaultWFStall(),
		Scope:    TablePerCU,
		Fallback: true,
	}
}

// Name implements Policy.
func (p *PCStall) Name() string { return "PCSTALL" }

// Truth implements Policy.
func (p *PCStall) Truth() TruthNeed { return NoTruth }

// Predicts implements Policy.
func (p *PCStall) Predicts() bool { return true }

// Reset implements Policy.
func (p *PCStall) Reset() { p.tables = nil }

func (p *PCStall) table(ctx *Context, cu int) *predict.PCTable {
	var n, idx int
	switch p.Scope {
	case TablePerCU:
		n, idx = ctx.DMap.NumCUs, cu
	case TablePerDomain:
		n, idx = ctx.DMap.NumDomains(), ctx.DMap.DomainOf(cu)
	default:
		n, idx = 1, 0
	}
	if p.tables == nil {
		p.tables = make([]*predict.PCTable, n)
		for i := range p.tables {
			p.tables[i] = predict.NewPCTable(p.Cfg)
		}
	}
	return p.tables[idx]
}

// Tables exposes the policy's PC-table instances for telemetry.
func (p *PCStall) Tables() []*predict.PCTable { return p.tables }

// HitRatio returns the average hit ratio across table instances.
func (p *PCStall) HitRatio() float64 {
	if len(p.tables) == 0 {
		return 0
	}
	var hits, lookups float64
	for _, t := range p.tables {
		lookups += float64(t.Lookups())
		hits += float64(t.Lookups()) * t.HitRatio()
	}
	if lookups == 0 {
		return 0
	}
	return hits / lookups
}

// Decide implements Policy.
func (p *PCStall) Decide(ctx *Context, elapsed *sim.EpochSample, obj Objective, pred [][]float64, choice []int) {
	grid := ctx.Grid
	fRef := grid.Mid()
	// Update: store each wavefront's elapsed-epoch estimate under its
	// starting PC, and remember the latest estimate per (cu, slot) as
	// the miss fallback.
	if p.fallback == nil {
		p.fallback = make(map[[2]int32]estimate.WFEstimate)
	}
	fallback := p.fallback
	clear(fallback)
	if elapsed != nil {
		dur := int64(elapsed.End - elapsed.Start)
		for cu := range elapsed.CUs {
			ce := &elapsed.CUs[cu]
			tbl := p.table(ctx, cu)
			n := len(ce.WFs)
			d := ctx.DMap.DomainOf(cu)
			bf := estimate.BarrierStallFrac(ce.WFs)
			for i := range ce.WFs {
				rec := &ce.WFs[i]
				e := p.WFCfg.EstimateWF(rec, dur, elapsed.Freqs[d], grid, n, bf)
				// A wave blocked for its entire epoch carries no phase
				// information; storing its zero would poison the entry
				// for waves that start here and then make progress.
				if rec.C.Committed > 0 || rec.Done {
					tbl.Update(rec.StartPC, e)
				}
				if !rec.Done {
					fallback[[2]int32{int32(cu), rec.Slot}] = e
				}
			}
		}
	}

	// Lookup: each resident wavefront indexes its table with its next
	// PC; per-wavefront predictions sum into the domain curve.
	for d := range pred {
		for s := range pred[d] {
			pred[d][s] = 0
		}
		p.pcBuf = ctx.ActivePCs(d, p.pcBuf[:0])
		for _, wp := range p.pcBuf {
			tbl := p.table(ctx, int(wp.CU))
			e, ok := tbl.Lookup(wp.PC)
			if !ok {
				if !p.Fallback {
					continue
				}
				fe, has := fallback[[2]int32{wp.CU, wp.Slot}]
				if !has {
					continue
				}
				e = fe
			}
			for s := range pred[d] {
				pred[d][s] += e.Eval(grid.State(s), fRef)
			}
		}
	}
	chooseAll(ctx, obj, pred, choice)
}

// ---------------------------------------------------------------------------
// Accurate-estimate designs (fork-pre-execute fed)

// AccReactive is ACCREAC: a last-value predictor fed perfectly accurate
// estimates of the elapsed epoch (from fork-pre-execute sampling). It
// isolates the prediction error: even with perfect estimation, reacting
// is wrong whenever consecutive epochs differ (§6.1).
type AccReactive struct{}

// Name implements Policy.
func (p *AccReactive) Name() string { return "ACCREAC" }

// Truth implements Policy.
func (p *AccReactive) Truth() TruthNeed { return DomainTruth }

// Predicts implements Policy.
func (p *AccReactive) Predicts() bool { return true }

// Reset implements Policy.
func (p *AccReactive) Reset() {}

// Decide implements Policy.
func (p *AccReactive) Decide(ctx *Context, elapsed *sim.EpochSample, obj Objective, pred [][]float64, choice []int) {
	for d := range pred {
		for s := range pred[d] {
			if ctx.PrevTruth != nil {
				pred[d][s] = ctx.PrevTruth.I[d][s]
			} else {
				pred[d][s] = 0
			}
		}
	}
	chooseAll(ctx, obj, pred, choice)
}

// AccPC is ACCPC: the PC-based predictor fed perfectly accurate
// per-wavefront sensitivities — the upper bound of the PC mechanism.
type AccPC struct {
	Cfg   predict.PCTableConfig
	Scope TableScope

	tables []*predict.PCTable
	pcBuf  []sim.WavePC
}

// NewAccPC returns the default-configured ACCPC design.
func NewAccPC() *AccPC {
	return &AccPC{Cfg: predict.DefaultPCTable(), Scope: TablePerCU}
}

// Name implements Policy.
func (p *AccPC) Name() string { return "ACCPC" }

// Truth implements Policy.
func (p *AccPC) Truth() TruthNeed { return WFTruth }

// Predicts implements Policy.
func (p *AccPC) Predicts() bool { return true }

// Reset implements Policy.
func (p *AccPC) Reset() { p.tables = nil }

func (p *AccPC) table(ctx *Context, cu int) *predict.PCTable {
	var n, idx int
	switch p.Scope {
	case TablePerCU:
		n, idx = ctx.DMap.NumCUs, cu
	case TablePerDomain:
		n, idx = ctx.DMap.NumDomains(), ctx.DMap.DomainOf(cu)
	default:
		n, idx = 1, 0
	}
	if p.tables == nil {
		p.tables = make([]*predict.PCTable, n)
		for i := range p.tables {
			p.tables[i] = predict.NewPCTable(p.Cfg)
		}
	}
	return p.tables[idx]
}

// Tables exposes the policy's PC-table instances for telemetry.
func (p *AccPC) Tables() []*predict.PCTable { return p.tables }

// Decide implements Policy.
func (p *AccPC) Decide(ctx *Context, elapsed *sim.EpochSample, obj Objective, pred [][]float64, choice []int) {
	grid := ctx.Grid
	fRef := grid.Mid()
	if ctx.PrevTruth != nil && ctx.PrevTruth.WF != nil {
		for cu := range ctx.PrevTruth.WF {
			tbl := p.table(ctx, cu)
			// Update in ascending wave order, not map order: table
			// entries are EWMAs, so the update sequence is
			// order-sensitive when waves share an entry, and runs must
			// be deterministic (DESIGN.md §3) for caching and for the
			// serial-vs-parallel golden test.
			waves := ctx.PrevTruth.WF[cu]
			ids := make([]int64, 0, len(waves))
			for id := range waves {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			for _, id := range ids {
				tbl.Update(waves[id].StartPC, waves[id].WFEstimateTrue(grid))
			}
		}
	}
	for d := range pred {
		for s := range pred[d] {
			pred[d][s] = 0
		}
		p.pcBuf = ctx.ActivePCs(d, p.pcBuf[:0])
		for _, wp := range p.pcBuf {
			e, ok := p.table(ctx, int(wp.CU)).Lookup(wp.PC)
			if !ok {
				// Miss fallback: the wave's own accurate elapsed-epoch
				// estimate (the accurate analogue of PCSTALL's reactive
				// fallback).
				if ctx.PrevTruth == nil || ctx.PrevTruth.WF == nil {
					continue
				}
				wt := ctx.PrevTruth.WF[wp.CU][wp.GlobalWave]
				if wt == nil {
					continue
				}
				e = wt.WFEstimateTrue(grid)
			}
			for s := range pred[d] {
				pred[d][s] += e.Eval(grid.State(s), fRef)
			}
		}
	}
	chooseAll(ctx, obj, pred, choice)
}

// Oracle picks frequencies from the sampled truth of the epoch about to
// run — the near-optimal reference (ORACLE in TABLE III).
type Oracle struct{}

// Name implements Policy.
func (p *Oracle) Name() string { return "ORACLE" }

// Truth implements Policy.
func (p *Oracle) Truth() TruthNeed { return DomainTruth }

// Predicts implements Policy.
func (p *Oracle) Predicts() bool { return true }

// Reset implements Policy.
func (p *Oracle) Reset() {}

// Decide implements Policy.
func (p *Oracle) Decide(ctx *Context, _ *sim.EpochSample, obj Objective, pred [][]float64, choice []int) {
	states := ctx.Grid.States()
	for d := range pred {
		if ctx.NextTruth == nil {
			for s := range pred[d] {
				pred[d][s] = 0
			}
			choice[d] = ctx.Grid.Index(ctx.Grid.Mid())
			continue
		}
		copy(pred[d], ctx.NextTruth.I[d])
		choice[d] = obj.Choose(states, ctx.NextTruth.I[d], ctx.NextTruth.E[d])
		ctx.ObjEvals.Inc()
	}
}
