package sim

import (
	"fmt"

	"pcstall/internal/clock"
	"pcstall/internal/isa"
	"pcstall/internal/mem"
	"pcstall/internal/xrand"
)

// Config describes the simulated GPU.
type Config struct {
	// NumCUs is the number of compute units (the paper's platform has 64).
	NumCUs int
	// MaxWavesPerCU is the wavefront slot count per CU (40 on Vega).
	MaxWavesPerCU int
	// SIMDsPerCU is the number of SIMD issue units per CU.
	SIMDsPerCU int
	// Mem is the memory hierarchy configuration.
	Mem mem.Config
	// Domains maps CUs into V/f domains.
	Domains clock.Map
	// Grid is the DVFS frequency grid.
	Grid clock.Grid
	// InitFreq is the frequency every domain starts at.
	InitFreq clock.Freq
	// Seed drives all workload randomness.
	Seed uint64
	// MaxCycles bounds the total CU cycles the simulation may execute
	// (skipped spans included); when the budget runs out RunUntil stops
	// with a DeadlockCycleLimit diagnostic in GPU.Stuck. 0 means unbounded.
	MaxCycles int64
}

// DefaultConfig returns the paper's platform scaled by numCUs: per-CU V/f
// domains, the 1.3-2.2 GHz grid, Vega-like CU shape, and the default
// memory hierarchy.
func DefaultConfig(numCUs int) Config {
	g := clock.DefaultGrid()
	return Config{
		NumCUs:        numCUs,
		MaxWavesPerCU: 40,
		SIMDsPerCU:    4,
		Mem:           mem.DefaultConfig(),
		Domains:       clock.Map{NumCUs: numCUs, CUsPerDomain: 1},
		Grid:          g,
		InitFreq:      g.Mid(),
		Seed:          1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumCUs < 1 {
		return fmt.Errorf("sim: %d CUs", c.NumCUs)
	}
	if c.MaxWavesPerCU < 1 || c.SIMDsPerCU < 1 {
		return fmt.Errorf("sim: bad CU shape: %d waves, %d SIMDs", c.MaxWavesPerCU, c.SIMDsPerCU)
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.Domains.NumCUs != c.NumCUs {
		return fmt.Errorf("sim: domain map covers %d CUs, GPU has %d", c.Domains.NumCUs, c.NumCUs)
	}
	if err := c.Domains.Validate(); err != nil {
		return err
	}
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.Grid.Index(c.InitFreq) < 0 {
		return fmt.Errorf("sim: initial frequency %v not on grid", c.InitFreq)
	}
	if c.MaxCycles < 0 {
		return fmt.Errorf("sim: negative cycle budget %d", c.MaxCycles)
	}
	return nil
}

// GPU is the complete simulator state. Clone deep-copies it; the clone
// executes identically given identical frequency schedules.
type GPU struct {
	Cfg Config
	// Kernels is the deduplicated kernel set (shared, read-only).
	Kernels []isa.Kernel
	// Launches is the kernel launch order, as indices into Kernels
	// (shared, read-only). Launches run back-to-back with a full GPU
	// sync between them.
	Launches []int32

	CUs     []CU
	Domains []clock.Domain
	Msys    *mem.MemSys
	Now     clock.Time
	// EpochStart anchors per-epoch counters.
	EpochStart clock.Time
	// Finished is set once every launch has completed.
	Finished bool
	// Stuck is set by the cooperative watchdog when the simulation can
	// make no further progress (deadlocked workload or exhausted
	// Config.MaxCycles budget). Once set, RunUntil only advances Now.
	Stuck *DeadlockError
	// TotalCommitted counts instructions committed since time zero.
	TotalCommitted int64
	// Cycles counts CU cycle events executed (the MaxCycles budget).
	Cycles int64

	// Dispatch state.
	LaunchIdx      int32
	WGDispatched   int64
	WavesLeft      int64
	WGSeq          int64
	GlobalWaveSeq  int64
	dispatchCursor int32
	Rng            xrand.State

	heap      tickHeap
	memTickAt clock.Time
	// memDirty is set by submit/scheduleLocal so the event loop knows a
	// CU sweep changed the memory system's next-completion time.
	memDirty bool
	doneBuf  []mem.Request
	// dirty lists CUs touched by the current completion batch; the
	// event-driven loop re-schedules each once per batch.
	dirty []int32
}

// New builds a GPU running the given launch sequence. It validates the
// configuration and all kernels, and performs the initial dispatch so the
// simulation is ready to run from time zero.
func New(cfg Config, kernels []isa.Kernel, launches []int32) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(kernels) == 0 || len(launches) == 0 {
		return nil, fmt.Errorf("sim: need at least one kernel and one launch")
	}
	for i := range kernels {
		if err := kernels[i].Validate(); err != nil {
			return nil, err
		}
		if kernels[i].WavesPerWG > cfg.MaxWavesPerCU {
			return nil, fmt.Errorf("sim: kernel %q workgroup (%d waves) exceeds CU capacity (%d)",
				kernels[i].Program.Name, kernels[i].WavesPerWG, cfg.MaxWavesPerCU)
		}
	}
	for _, l := range launches {
		if l < 0 || int(l) >= len(kernels) {
			return nil, fmt.Errorf("sim: launch index %d out of range", l)
		}
	}

	g := &GPU{
		Cfg:       cfg,
		Kernels:   kernels,
		Launches:  launches,
		CUs:       make([]CU, cfg.NumCUs),
		Domains:   make([]clock.Domain, cfg.Domains.NumDomains()),
		Msys:      mem.NewMemSys(cfg.Mem),
		Rng:       xrand.New(cfg.Seed),
		heap:      newTickHeap(cfg.NumCUs),
		memTickAt: InfTime,
		LaunchIdx: -1,
	}
	maxBranchSlots := 0
	for i := range kernels {
		if s := kernels[i].Program.BranchSlots; s > maxBranchSlots {
			maxBranchSlots = s
		}
	}
	for i := range g.CUs {
		g.CUs[i] = newCU(int32(i), int32(cfg.Domains.DomainOf(i)), &cfg, maxBranchSlots)
	}
	for d := range g.Domains {
		g.Domains[d] = clock.NewDomain(int32(d), cfg.InitFreq)
	}
	g.advanceLaunch(0)
	return g, nil
}

// advanceLaunch moves to the next kernel launch (or finishes) and
// dispatches its first workgroups.
func (g *GPU) advanceLaunch(now clock.Time) {
	g.LaunchIdx++
	if int(g.LaunchIdx) >= len(g.Launches) {
		g.Finished = true
		return
	}
	k := &g.Kernels[g.Launches[g.LaunchIdx]]
	g.WGDispatched = 0
	g.WavesLeft = int64(k.TotalWaves())
	g.tryDispatch(now)
}

// tryDispatch assigns pending workgroups of the current launch to CUs
// with enough free slots, round-robin: one workgroup per CU per pass so
// the grid spreads across the whole GPU before any CU is double-loaded.
func (g *GPU) tryDispatch(now clock.Time) {
	if g.Finished {
		return
	}
	kern := &g.Kernels[g.Launches[g.LaunchIdx]]
	total := int64(kern.Workgroups)
	n := int32(len(g.CUs))
	for g.WGDispatched < total {
		progress := false
		start := g.dispatchCursor
		for off := int32(0); off < n && g.WGDispatched < total; off++ {
			ci := (start + off) % n
			cu := &g.CUs[ci]
			if cu.freeSlots() >= kern.WavesPerWG {
				g.dispatchWG(cu, now)
				g.dispatchCursor = (ci + 1) % n
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// dispatchWG places one workgroup of the current launch on cu.
func (g *GPU) dispatchWG(cu *CU, now clock.Time) {
	kIdx := g.Launches[g.LaunchIdx]
	kern := &g.Kernels[kIdx]
	wg := g.WGSeq
	g.WGSeq++
	g.WGDispatched++
	placed := 0
	for i := range cu.WFs {
		if placed == kern.WavesPerWG {
			break
		}
		wf := &cu.WFs[i]
		if wf.State != WFFree {
			continue
		}
		gw := g.GlobalWaveSeq
		g.GlobalWaveSeq++
		wf.init(kIdx, &kern.Program, wg, int32(kern.WavesPerWG), gw, now, g.Rng.Split(uint64(gw)))
		cu.ActiveWaves++
		cu.enqueue(int32(i))
		placed++
	}
	cu.closeIdle(now)
	g.scheduleCU(cu, now)
}

// noteWaveDone is called by CU.retire when a wavefront completes.
func (g *GPU) noteWaveDone(now clock.Time) {
	g.WavesLeft--
	if g.WavesLeft == 0 {
		g.advanceLaunch(now)
		return
	}
	g.tryDispatch(now)
}

// submit routes a request into the shared hierarchy, waking the uncore.
func (g *GPU) submit(r mem.Request) {
	g.Msys.Submit(r)
	g.memDirty = true
	if g.memTickAt == InfTime {
		g.memTickAt = g.Msys.NextTickAfter(g.Now)
	}
}

// scheduleLocal schedules an L1-hit response.
func (g *GPU) scheduleLocal(r mem.Request, at clock.Time) {
	g.Msys.ScheduleLocal(r, at)
	g.memDirty = true
}

// scheduleCU recomputes cu's next tick: the first domain tick at which
// some runnable wavefront's SIMD is free, or sleep if nothing can issue.
// This is the cycle-skipping core — when every SIMD with runnable work is
// busy, the CU leaps straight past the known-busy span instead of ticking
// through it. O(#SIMDs) thanks to the maintained runnable counts.
func (g *GPU) scheduleCU(cu *CU, now clock.Time) {
	earliest := InfTime
	for s := range cu.SIMDFreeAt {
		if cu.runnable[s] > 0 && cu.SIMDFreeAt[s] < earliest {
			earliest = cu.SIMDFreeAt[s]
		}
	}
	if earliest == InfTime {
		cu.beginIdle(now)
		g.heap.set(cu.ID, InfTime)
		return
	}
	cu.closeIdle(now)
	if g.heap.key[cu.ID] == InfTime {
		// Waking from sleep: the slept span holds no CU cycles, so the
		// budget must not be billed for it.
		cu.cycleMark = now
	}
	dom := &g.Domains[cu.Domain]
	t := earliest - 1
	if t < now {
		t = now
	}
	g.heap.set(cu.ID, dom.NextTickAfter(t))
}

// applyCompletion lands one memory response at time now.
func (g *GPU) applyCompletion(r mem.Request, now clock.Time) {
	cu := &g.CUs[r.CU]
	cu.closeIdle(now)
	wf := &cu.WFs[r.WF]
	if r.Store {
		cu.StoresInFlight--
		cu.L1MissOut--
		if wf.OutStores == 1 && (wf.State == WFWaitCnt || wf.State == WFThrottled) {
			// Last in-flight store of a memory-blocked wave drains; the
			// wave no longer counts toward store-classified idle time.
			cu.blockedStore--
		}
		wf.OutStores--
	} else {
		cu.LoadsInFlight--
		wf.OutLoads--
		if !r.L1Hit {
			cu.L1MissOut--
			cu.L1.Fill(r.Addr)
			if r.Leading {
				cu.C.LeadLatPs += now - r.Issue
			}
			start := r.Issue
			if cu.CritEnd > start {
				start = cu.CritEnd
			}
			if now > cu.CritEnd {
				cu.C.CritLatPs += now - start
				cu.CritEnd = now
			}
		}
	}
	if !r.L1Hit && cu.throttled > 0 {
		// A miss completion freed MSHRs. Replay the throttled waves FIFO in
		// the order they throttled, waking one only when its pending memory
		// issue fits the free capacity, and stopping at the first that does
		// not (in-order replay, like a hardware MSHR retry queue). Waking
		// every wave — as the sim once did — left instantly re-throttling
		// waves with a re-stamped BlockedSince, splitting one continuous
		// stall span and dropping the wake-to-re-throttle gap from StallPs,
		// besides burning scheduling work on waves that could not issue.
		avail := int32(g.Cfg.Mem.L1MSHRs) - cu.L1MissOut
		for cu.throttled > 0 && avail > 0 {
			twf := &cu.WFs[cu.thrQ[cu.thrHead]]
			lines := twf.ThrLines
			if lines > avail {
				break
			}
			avail -= lines
			cu.thrPop()
			twf.C.StallPs += now - twf.BlockedSince
			twf.State = WFRunning
			cu.noteRunnable(twf)
			cu.noteMemWake(twf)
		}
	}
	if wf.State == WFWaitCnt && wf.OutLoads+wf.OutStores <= wf.WaitThresh {
		wf.C.StallPs += now - wf.BlockedSince
		wf.State = WFRunning
		cu.noteRunnable(wf)
		cu.noteMemWake(wf)
		prog := &g.Kernels[wf.Kernel].Program
		cu.commit(g, wf, false)
		if prog.Code[wf.PC].Kind == isa.EndPgm {
			cu.retire(g, int(r.WF), now)
		} else {
			wf.PC++
		}
	}
}

// RunUntil advances simulated time to limit (or until the application
// finishes, whichever comes first). On return g.Now is the limit, or the
// finish time if the workload completed earlier.
//
// RunUntil is also the cooperative watchdog: if every event source goes
// quiet (no CU tick, no uncore tick, no pending response) while the
// application is unfinished, nothing can ever wake the GPU again — events
// are only created by events — so instead of silently idling to the limit
// it records a structured DeadlockError in g.Stuck. The same happens when
// the Config.MaxCycles event budget runs out. A stuck GPU stays
// navigable: further RunUntil calls just advance Now so callers' epoch
// loops terminate instead of spinning.
func (g *GPU) RunUntil(limit clock.Time) {
	// The three event sources — CU tick schedule, uncore tick, completion
	// queue — are cached across iterations and refreshed only when they
	// can actually have moved: the tick schedule after a drain or a CU
	// sweep, the completion queue after a drain, an uncore batch, or a
	// submit/L1-hit scheduled during a sweep (memDirty).
	ci, ck := g.heap.min()
	nd, ndok := g.Msys.NextDone()
	for !g.Finished && g.Stuck == nil {
		t := ck
		if g.memTickAt < t {
			t = g.memTickAt
		}
		if ndok && nd < t {
			t = nd
		}
		if t == InfTime {
			g.Stuck = g.diagnoseStall()
			break
		}
		if t > limit {
			break
		}
		g.Now = t

		// Apply the whole completion batch, then re-schedule each touched
		// CU once. Re-scheduling after every completion would be
		// equivalent — scheduleCU is a pure recomputation, and same-time
		// zero-duration idle intervals contribute nothing — but does the
		// heap and idle bookkeeping once per completion instead of once
		// per batch. A completion is due only when nd == t, so the drain
		// is skipped entirely on pure tick events.
		if ndok && nd <= t {
			g.doneBuf = g.Msys.PopDone(t, g.doneBuf[:0])
			for _, r := range g.doneBuf {
				if g.Finished {
					break
				}
				g.applyCompletion(r, t)
				cu := &g.CUs[r.CU]
				if !cu.dirtySched {
					cu.dirtySched = true
					g.dirty = append(g.dirty, r.CU)
				}
			}
			for _, ci := range g.dirty {
				cu := &g.CUs[ci]
				cu.dirtySched = false
				if !g.Finished {
					g.scheduleCU(cu, t)
				}
			}
			g.dirty = g.dirty[:0]
			if g.Finished {
				break
			}
			// Rescheduling may have moved CU ticks, and the drain consumed
			// completions; refresh both cached minima.
			ci, ck = g.heap.min()
			nd, ndok = g.Msys.NextDone()
		}

		if g.memTickAt == t {
			// Batch-run uncore cycles up to the next CU event: the window
			// below holds no CU tick (ck), no completion landing (nd — and
			// TickRun stops before anything it schedules itself could
			// land), and no time past the caller's limit, so no submission
			// or wake can occur inside it. Uncore ticks never touch CU
			// tick keys, so the cached (ci, ck) stays valid across the
			// batch.
			horizon := ck
			if ndok && nd < horizon {
				horizon = nd
			}
			if limit+1 < horizon {
				horizon = limit + 1
			}
			if next, pending := g.Msys.TickRun(t, horizon); pending {
				g.memTickAt = next
			} else {
				g.memTickAt = InfTime
			}
			// The batch moved requests into the completion queues.
			nd, ndok = g.Msys.NextDone()
		}

		if ck != t {
			continue
		}
		g.memDirty = false
		if g.heap.linear {
			// One ascending pass ticks every CU due at t. A tick only
			// rewrites its own key (to a strictly later time), so this
			// visits exactly the CUs repeated min() would, in the same
			// index order, at one key scan per time step instead of one
			// per tick.
			for i := range g.heap.key {
				if g.heap.key[i] != t {
					continue
				}
				g.CUs[i].tick(g, t)
				if g.Cfg.MaxCycles > 0 && g.Cycles >= g.Cfg.MaxCycles && !g.Finished && g.Stuck == nil {
					g.Stuck = &DeadlockError{
						Kind: DeadlockCycleLimit, Now: t, Cycles: g.Cycles,
						Waiting: g.residentWaves(),
					}
				}
				if g.Finished || g.Stuck != nil {
					break
				}
			}
		} else {
			for ck == t {
				g.CUs[ci].tick(g, t)
				if g.Cfg.MaxCycles > 0 && g.Cycles >= g.Cfg.MaxCycles && !g.Finished && g.Stuck == nil {
					g.Stuck = &DeadlockError{
						Kind: DeadlockCycleLimit, Now: t, Cycles: g.Cycles,
						Waiting: g.residentWaves(),
					}
				}
				if g.Finished || g.Stuck != nil {
					break
				}
				ci, ck = g.heap.min()
			}
		}
		ci, ck = g.heap.min()
		if g.memDirty {
			nd, ndok = g.Msys.NextDone()
		}
	}
	if !g.Finished && g.Now < limit {
		g.Now = limit
	}
}

// residentWaves counts occupied wavefront slots GPU-wide.
func (g *GPU) residentWaves() int {
	n := 0
	for i := range g.CUs {
		n += int(g.CUs[i].ActiveWaves)
	}
	return n
}

// CollectEpoch finalizes the epoch ending now and fills out with the
// GPU-wide sample, then resets per-epoch state. The sample's slices are
// reused across calls; consumers must copy anything they keep.
func (g *GPU) CollectEpoch(out *EpochSample) {
	end := g.Now
	out.Start = g.EpochStart
	out.End = end
	out.Finished = g.Finished
	if cap(out.Freqs) < len(g.Domains) {
		out.Freqs = make([]clock.Freq, len(g.Domains))
	}
	out.Freqs = out.Freqs[:len(g.Domains)]
	for d := range g.Domains {
		out.Freqs[d] = g.Domains[d].Freq
	}
	if cap(out.CUs) < len(g.CUs) {
		// Fresh entries only: copying the old CUEpoch headers would carry
		// over WFs slices whose backing arrays a consumer may have
		// retained from an earlier sample, and collect would then mutate
		// records behind the consumer's back. Each new entry re-grows its
		// own WFs on first use instead.
		out.CUs = make([]CUEpoch, len(g.CUs))
	}
	out.CUs = out.CUs[:len(g.CUs)]
	for i := range g.CUs {
		g.CUs[i].collect(g, end, &out.CUs[i])
	}
	g.EpochStart = end
}

// ResetEpoch discards the epoch in progress and starts a fresh one at the
// current time: exactly CollectEpoch's state effects without building a
// sample. The oracle uses it to zero a fork's counters before
// pre-executing, at a fraction of CollectEpoch's cost.
func (g *GPU) ResetEpoch() {
	end := g.Now
	for i := range g.CUs {
		cu := &g.CUs[i]
		cu.closeEpochStamps(end)
		cu.resetEpochState(g, end)
	}
	g.EpochStart = end
}

// SetDomainFreq requests frequency f for domain d at the current time,
// stalling the domain for the given transition latency if f differs from
// its current frequency.
func (g *GPU) SetDomainFreq(d int, f clock.Freq, transition clock.Time) {
	g.SetDomainFreqOutcome(d, f, transition, false)
}

// SetDomainFreqOutcome is SetDomainFreq with an explicit regulator
// outcome (fault injection): a failed attempt pays the transition stall
// but keeps the old frequency. The domain's CUs are rescheduled either
// way because the stall moved their next tick.
func (g *GPU) SetDomainFreqOutcome(d int, f clock.Freq, transition clock.Time, fail bool) {
	dom := &g.Domains[d]
	if f == dom.Freq {
		return
	}
	dom.SetFreqOutcome(f, g.Now, transition, fail)
	lo, hi := g.Cfg.Domains.CUs(d)
	for cu := lo; cu < hi; cu++ {
		g.scheduleCU(&g.CUs[cu], g.Now)
	}
}

// ActivePCs appends the (cu, wavefront, byte-PC) of every resident
// wavefront in domain d — the PC predictor's lookup keys for the next
// epoch.
func (g *GPU) ActivePCs(d int, buf []WavePC) []WavePC {
	lo, hi := g.Cfg.Domains.CUs(d)
	for ci := lo; ci < hi; ci++ {
		cu := &g.CUs[ci]
		for i := range cu.WFs {
			wf := &cu.WFs[i]
			if wf.State == WFFree {
				continue
			}
			prog := &g.Kernels[wf.Kernel].Program
			buf = append(buf, WavePC{CU: int32(ci), Slot: int32(i), GlobalWave: wf.GlobalWave, PC: prog.PC(wf.PC)})
		}
	}
	return buf
}

// WavePC identifies a resident wavefront and its current byte PC.
type WavePC struct {
	CU         int32
	Slot       int32
	GlobalWave int64
	PC         uint64
}

// Clone copies the entire simulator state; the clone executes identically
// given identical frequency schedules and may run on another goroutine.
// Kernels and launches are immutable and shared outright; L1/L2 cache tag
// arrays — the bulk of the state — are shared copy-on-write and privatized
// on first write, so cloning cost is proportional to the small mutable
// core (waves, queues, counters), not cache capacity. Call Release on a
// clone being discarded while its parent lives on; forgetting to is safe,
// merely slower.
func (g *GPU) Clone() *GPU { return g.CloneInto(nil) }

// CloneInto is Clone writing into dst, a discarded fork whose wave, queue
// and schedule buffers are reused instead of reallocated — the oracle
// recycles one fork per worker this way across every sample it takes.
// dst's previous state is discarded (cache shares it still holds are
// Released first), so dst must not be g, an ancestor of g, or any GPU
// still in use. A nil dst allocates a fresh GPU.
func (g *GPU) CloneInto(dst *GPU) *GPU {
	if dst == nil {
		dst = &GPU{}
	} else {
		dst.Release()
	}
	old := *dst
	*dst = *g
	cus := old.CUs
	if cap(cus) < len(g.CUs) {
		cus = make([]CU, len(g.CUs))
	}
	dst.CUs = cus[:len(g.CUs)]
	for i := range g.CUs {
		g.CUs[i].cloneInto(&dst.CUs[i])
	}
	dst.Domains = reuse(old.Domains, g.Domains)
	dst.Msys = g.Msys.CloneInto(old.Msys)
	g.heap.cloneInto(&old.heap)
	dst.heap = old.heap
	dst.doneBuf = old.doneBuf[:0]
	dst.dirty = old.dirty[:0]
	return dst
}

// reuse returns a copy of src backed by dst's array when it has the
// capacity (nil for a nil src, so nil-checked optional slices keep their
// meaning in a recycled copy).
func reuse[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

// Release drops the GPU's copy-on-write share of cache tag state. The GPU
// must not be used afterwards, except as the destination of a CloneInto.
func (g *GPU) Release() {
	for i := range g.CUs {
		g.CUs[i].L1.Release()
	}
	g.Msys.Release()
}
