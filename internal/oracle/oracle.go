// Package oracle implements the paper's fork-pre-execute methodology
// (§5.1, Fig. 13): at an epoch boundary the simulator state is forked
// into one sampling run per V/f state; sample s assigns domain d the
// state (d+s) mod K, shuffling frequencies across domains so that
// cross-domain interference is measured under a representative mix. Each
// sample pre-executes the next epoch and reports per-domain (and
// optionally per-wavefront) instructions committed, after which the
// parent re-executes the epoch with the frequencies the policy selects.
//
// The paper forks simulator processes that run concurrently; this package
// clones the in-process simulator state (sim.GPU.CloneInto) and runs the
// samples concurrently on goroutines, which is functionally identical and
// deterministic — the Truth does not depend on the parallelism. Clones are
// copy-on-write — cache tag arrays, the bulk of the state, are shared with
// the parent until first mutation — so forking is cheap, and each fork is
// Released when its sample has been read so the parent regains in-place
// mutation of anything left shared. Released forks are recycled as the
// destination of the next clone, so their buffers are not reallocated.
package oracle

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pcstall/internal/clock"
	"pcstall/internal/estimate"
	"pcstall/internal/metrics"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/telemetry"
)

// Telemetry is the sampler's metric bundle: how many simulator forks the
// fork-pre-execute methodology spawned and how much simulated time those
// forks pre-executed — the oracle's methodological cost (§5.1). A nil
// *Telemetry ignores recording.
type Telemetry struct {
	// Forks counts cloned simulators (one per sample).
	Forks *telemetry.Counter
	// PreExecPs counts simulated picoseconds executed inside forks.
	PreExecPs *telemetry.Counter
	// Interpolated counts (domain, state) cells filled by interpolation
	// rather than direct sampling (sample-count ablations).
	Interpolated *telemetry.Counter
}

// NewTelemetry builds the bundle on r (nil r yields nil).
func NewTelemetry(r *telemetry.Registry) *Telemetry {
	if r == nil {
		return nil
	}
	return &Telemetry{
		Forks:        r.Counter("oracle_forks_total", "simulator clones forked for pre-execution sampling"),
		PreExecPs:    r.Counter("oracle_preexec_ps_total", "simulated time pre-executed inside oracle forks, picoseconds"),
		Interpolated: r.Counter("oracle_interpolated_cells_total", "truth cells filled by interpolation instead of sampling"),
	}
}

// WFTruth is one wavefront's sampled behaviour across all V/f states.
type WFTruth struct {
	// StartPC is the byte PC the wavefront held at the sampled epoch's
	// start (identical across samples — all forks share the start
	// state).
	StartPC uint64
	// AgeRank is the wavefront's age order within its CU at the epoch
	// start (0 = oldest, identical across samples).
	AgeRank int32
	// Committed[k] is the wavefront's committed instructions when its
	// domain ran state k.
	Committed []float64
	// ResidentPs[k] is its residency in that sample.
	ResidentPs []int64
}

// Truth is the sampled ground truth for one upcoming epoch.
type Truth struct {
	// EpochPs is the sampled epoch duration.
	EpochPs clock.Time
	// I[d][k] is instructions domain d commits at state k.
	I [][]float64
	// E[d][k] is domain d's core energy at state k (from the power
	// model applied to the sample's activity).
	E [][]float64
	// WF[cu] maps GlobalWave → per-state truth; populated only when the
	// sampler's CollectWF is set.
	WF []map[int64]*WFTruth
}

// Slope returns domain d's true sensitivity (instructions per MHz) by
// linear regression over the sampled states.
func (t *Truth) Slope(grid clock.Grid, d int) (slope, r2 float64) {
	xs := make([]float64, len(t.I[d]))
	for k := range xs {
		xs[k] = float64(grid.State(k))
	}
	slope, _, r2 = metrics.LinearFit(xs, t.I[d])
	return slope, r2
}

// WFEstimateTrue converts a wavefront's sampled curve into the linear
// (IRef, Slope) form the PC table stores — this is what the impractical
// ACCPC design feeds its table.
func (w *WFTruth) WFEstimateTrue(grid clock.Grid) estimate.WFEstimate {
	xs := make([]float64, len(w.Committed))
	for k := range xs {
		xs[k] = float64(grid.State(k))
	}
	slope, intercept, _ := metrics.LinearFit(xs, w.Committed)
	fRef := grid.Mid()
	return estimate.WFEstimate{IRef: intercept + slope*float64(fRef), Slope: slope}
}

// Sampler pre-executes upcoming epochs across the frequency grid.
//
// SampleNext fans its samples out over min(GOMAXPROCS, samples)
// goroutines, like the paper's concurrently running fork processes; the
// result is identical at any parallelism. Each worker recycles one fork
// (sim.GPU.CloneInto) and each sample has its own scratch EpochSample,
// both kept on the Sampler across calls — so a Sampler still runs one
// SampleNext at a time, and must not be called concurrently. Distinct
// Samplers may sample the same quiescent parent GPU from different
// goroutines — the copy-on-write clone machinery is built for exactly
// that — as long as nothing runs the parent meanwhile. The returned Truth
// never aliases the scratch state: every slice and map in it is freshly
// allocated, so it stays valid across later SampleNext calls.
type Sampler struct {
	Grid clock.Grid
	PM   *power.Model
	// CollectWF enables per-wavefront truth (needed by ACCPC and the
	// wavefront-level characterization figures; costs allocation).
	CollectWF bool
	// Samples optionally limits the number of forked samples (0 = one
	// per V/f state, the paper's configuration). Fewer samples leave
	// some (domain, state) cells estimated by linear interpolation —
	// used by the sample-count ablation.
	Samples int
	// Metrics, when non-nil, receives fork/pre-execute accounting.
	Metrics *Telemetry

	// forks[w] is worker w's recycled fork (Released between samples).
	forks []*sim.GPU
	// scratch[smp] receives sample smp's EpochSample when CollectWF.
	scratch []sim.EpochSample
}

// SampleNext forks g and pre-executes the next epoch of the given
// duration under shuffled frequency assignments. g itself is not
// modified.
func (s *Sampler) SampleNext(g *sim.GPU, epoch clock.Time) *Truth {
	k := s.Grid.Count()
	nd := g.Cfg.Domains.NumDomains()
	t := &Truth{
		EpochPs: epoch,
		I:       make([][]float64, nd),
		E:       make([][]float64, nd),
	}
	for d := 0; d < nd; d++ {
		t.I[d] = make([]float64, k)
		t.E[d] = make([]float64, k)
	}
	filled := make([][]bool, nd)
	for d := range filled {
		filled[d] = make([]bool, k)
	}

	nSamples := s.Samples
	if nSamples <= 0 || nSamples > k {
		nSamples = k
	}
	workers := min(runtime.GOMAXPROCS(0), nSamples)
	for len(s.forks) < workers {
		s.forks = append(s.forks, nil)
	}
	if s.CollectWF && len(s.scratch) < nSamples {
		s.scratch = append(s.scratch, make([]sim.EpochSample, nSamples-len(s.scratch))...)
	}

	// Workers claim sample indices from a shared counter. Sample smp
	// writes only the (d, (d+smp)%k) cells of I, E and filled, and only
	// scratch[smp], so the workers share nothing mutable. A panicking
	// fork stops the sweep and is re-raised on the caller's goroutine
	// once every worker has returned, as a serial sweep would raise it.
	var (
		next     atomic.Int32
		panicMu  sync.Mutex
		panicVal any
	)
	work := func(w int) {
		defer func() {
			if p := recover(); p != nil {
				next.Store(int32(nSamples))
				panicMu.Lock()
				if panicVal == nil {
					panicVal = p
				}
				panicMu.Unlock()
			}
		}()
		for {
			smp := int(next.Add(1)) - 1
			if smp >= nSamples {
				return
			}
			s.forks[w] = s.sampleOne(g, s.forks[w], t, filled, epoch, smp)
		}
	}
	// The caller waits for the helpers by yielding, not parking. A parked
	// caller gives up its P, resumes on the last helper's, and has the
	// runtime wake an idle thread, once per sweep; on a shared two-core
	// host that doubled the run-to-run spread of the figures campaign.
	// The wait lasts until the helpers' in-flight samples finish, and
	// other goroutines run first while it lasts.
	var pending atomic.Int32
	pending.Store(int32(workers - 1))
	for w := 1; w < workers; w++ {
		go func() {
			defer pending.Add(-1)
			work(w)
		}()
	}
	work(0)
	for pending.Load() > 0 {
		runtime.Gosched()
	}
	if panicVal != nil {
		panic(panicVal)
	}

	if s.CollectWF {
		t.WF = make([]map[int64]*WFTruth, g.Cfg.NumCUs)
		for c := range t.WF {
			t.WF[c] = make(map[int64]*WFTruth)
		}
		// Merge in sample order so the first sample to see a wave sets
		// its StartPC/AgeRank, exactly as a serial sweep would.
		for smp := 0; smp < nSamples; smp++ {
			collectWF(g, t, &s.scratch[smp], smp, k)
		}
	}
	if nSamples < k {
		if s.Metrics != nil {
			s.Metrics.Interpolated.Add(int64(nd * (k - nSamples)))
		}
		interpolate(t, filled)
	}
	return t
}

// sampleOne forks g into fork (a Released earlier fork, or nil), assigns
// domain d the state (d+smp) mod K, pre-executes one epoch and records
// the sample's cells of t. It returns the fork, Released, for reuse.
func (s *Sampler) sampleOne(g, fork *sim.GPU, t *Truth, filled [][]bool, epoch clock.Time, smp int) *sim.GPU {
	k := s.Grid.Count()
	nd := len(t.I)
	simds := g.Cfg.SIMDsPerCU
	cusPerDom := g.Cfg.Domains.CUsPerDomain

	c := g.CloneInto(fork)
	// Reset the clone's per-epoch counters so the sample measures
	// exactly the pre-executed epoch, regardless of when the parent last
	// collected. ResetEpoch discards instead of collecting — no record
	// building for counters nobody reads.
	c.ResetEpoch()
	for d := 0; d < nd; d++ {
		c.SetDomainFreq(d, s.Grid.State((d+smp)%k), 0)
	}
	start := c.Now
	c.RunUntil(c.Now + epoch)
	dur := c.Now - start
	if s.Metrics != nil {
		s.Metrics.Forks.Inc()
		s.Metrics.PreExecPs.Add(int64(dur))
	}
	// The per-domain truth reads the fork's live epoch counters
	// directly; the full EpochSample (with its per-wave records) is
	// built only when the caller wants per-wavefront truth, and only
	// after these reads — CollectEpoch resets the live counters.
	for d := 0; d < nd; d++ {
		st := (d + smp) % k
		var committed, issue int64
		lo, hi := g.Cfg.Domains.CUs(d)
		for cu := lo; cu < hi; cu++ {
			committed += c.CUs[cu].C.Committed
			issue += c.CUs[cu].C.IssueSlots
		}
		t.I[d][st] = float64(committed)
		t.E[d][st] = s.PM.DomainEpochEnergyJ(s.Grid.State(st), issue, cusPerDom, simds, dur) +
			s.PM.UncoreShareJ(dur, nd)
		filled[d][st] = true
	}
	if s.CollectWF {
		c.CollectEpoch(&s.scratch[smp])
	}
	// The fork is done: release its copy-on-write shares so the parent
	// regains in-place mutation and privatized arrays recycle.
	c.Release()
	return c
}

// collectWF records per-wavefront committed counts from one sample into t.
func collectWF(g *sim.GPU, t *Truth, es *sim.EpochSample, smp, k int) {
	for cu := range es.CUs {
		d := g.Cfg.Domains.DomainOf(cu)
		st := (d + smp) % k
		for i := range es.CUs[cu].WFs {
			rec := &es.CUs[cu].WFs[i]
			wt := t.WF[cu][rec.GlobalWave]
			if wt == nil {
				wt = &WFTruth{
					StartPC:    rec.StartPC,
					AgeRank:    rec.AgeRank,
					Committed:  make([]float64, k),
					ResidentPs: make([]int64, k),
				}
				t.WF[cu][rec.GlobalWave] = wt
			}
			wt.Committed[st] = float64(rec.C.Committed)
			wt.ResidentPs[st] = rec.ResidentPs
		}
	}
}

// interpolate fills unsampled (domain, state) cells linearly from the
// sampled ones (ablation mode only).
func interpolate(t *Truth, filled [][]bool) {
	for d := range t.I {
		xs := make([]float64, 0, len(t.I[d]))
		ys := make([]float64, 0, len(t.I[d]))
		es := make([]float64, 0, len(t.I[d]))
		for k := range t.I[d] {
			if filled[d][k] {
				xs = append(xs, float64(k))
				ys = append(ys, t.I[d][k])
				es = append(es, t.E[d][k])
			}
		}
		slopeI, interI, _ := metrics.LinearFit(xs, ys)
		slopeE, interE, _ := metrics.LinearFit(xs, es)
		for k := range t.I[d] {
			if !filled[d][k] {
				t.I[d][k] = interI + slopeI*float64(k)
				t.E[d][k] = interE + slopeE*float64(k)
			}
		}
	}
}
