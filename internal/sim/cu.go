package sim

import (
	"math/bits"

	"pcstall/internal/clock"
	"pcstall/internal/isa"
	"pcstall/internal/mem"
)

// CU is one compute unit: four SIMDs, up to MaxWavesPerCU resident
// wavefronts, a private vector L1, and per-epoch counters. All fields are
// plain data for snapshotting.
type CU struct {
	ID     int32
	Domain int32
	WFs    []Wavefront
	// simds holds each SIMD's issue state, in one record per SIMD so an
	// issue attempt touches one place.
	simds []simdState
	L1    mem.Cache
	// L1MissOut is the number of in-flight L1 misses (MSHR occupancy).
	L1MissOut int32
	// LoadsInFlight and StoresInFlight count this CU's in-flight lines.
	LoadsInFlight  int32
	StoresInFlight int32
	// CritEnd is the end of the load critical path seen so far.
	CritEnd clock.Time
	// ActiveWaves counts occupied wavefront slots.
	ActiveWaves int32
	// ready has bit s set iff simds[s].runMask != 0 — SIMD s has a
	// runnable wave. tick and scheduleCU visit only its set bits
	// (Config.Validate caps SIMDsPerCU at 64).
	ready uint64
	// thrQ is the MSHR replay queue: slots of WFThrottled waves in the
	// order they throttled, consumed FIFO by the wake path in
	// applyCompletion. It is a circular buffer of capacity len(WFs) —
	// a wave is queued at most once, so it cannot overflow. throttled is
	// the queue length.
	thrQ      []int32
	thrHead   int32
	throttled int32
	// blockedMem counts waves in WFWaitCnt or WFThrottled, blockedStore
	// those of them with stores still in flight, and blockedBarrier waves
	// parked at a barrier — beginIdle's O(1) classification inputs,
	// maintained at every state (and blocked-store-drain) transition.
	blockedMem     int32
	blockedStore   int32
	blockedBarrier int32
	// loopArena and reloadArena hold every resident wavefront's loop
	// trip counters and their reload values (slot i owns
	// [i*loopStride, (i+1)*loopStride), one entry per branch slot), so
	// dispatch and clone never allocate or re-point per-wave loop state.
	loopArena   []int32
	reloadArena []int32
	loopStride  int32
	// cycleMark is the time of this CU's previous tick (or wake from
	// idle); the span since it is charged to the GPU cycle budget so
	// leaping over a known-busy stretch still counts every skipped cycle.
	cycleMark clock.Time
	// dirtySched marks the CU as needing a scheduleCU pass at the end of
	// the current completion batch (event-driven loop only).
	dirtySched bool
	// IdleSince marks when the CU last became unable to issue (-1 when
	// it can issue); the idle*
	// flags classify the blocked interval for the estimation models.
	IdleSince   clock.Time
	idleMemWait bool
	idleStore   bool
	idleBarrier bool
	C           CUCounters
	// Retired buffers the records of wavefronts that completed during
	// the current epoch; collect drains it at the boundary.
	Retired []WFRecord
}

// simdState is one SIMD issue unit of a CU.
type simdState struct {
	// freeAt is when the SIMD finishes its current instruction.
	freeAt clock.Time
	// runMask has bit p set iff cu.WFs[q[p]].State == WFRunning. tick
	// jumps straight to the oldest runnable wave with a trailing-zero
	// count instead of walking past blocked queue entries
	// (Config.Validate caps MaxWavesPerCU at 64, so one word covers q).
	runMask uint64
	// q lists the occupied slots bound to this SIMD in age order
	// (GlobalWave ascending); dispatch appends (wave IDs are monotonic)
	// and retire removes.
	q []int32
}

const noIdle = clock.Time(-1)

func newCU(id int32, domain int32, cfg *Config, maxBranchSlots int) CU {
	cu := CU{
		ID:         id,
		Domain:     domain,
		WFs:        make([]Wavefront, cfg.MaxWavesPerCU),
		simds:      make([]simdState, cfg.SIMDsPerCU),
		L1:         cfg.Mem.NewL1(),
		IdleSince:  noIdle,
		loopStride: int32(maxBranchSlots),
	}
	cu.thrQ = make([]int32, cfg.MaxWavesPerCU)
	cu.loopArena = make([]int32, maxBranchSlots*cfg.MaxWavesPerCU)
	cu.reloadArena = make([]int32, maxBranchSlots*cfg.MaxWavesPerCU)
	return cu
}

// noteRunnable and noteBlocked maintain the per-SIMD run masks and the
// ready mask; they must bracket every WFRunning transition. The wave's
// SIMD binding is cached in wf.SIMD and its queue position in wf.QPos,
// both maintained by enqueue/dequeue.
//
// Positions and SIMD indices are below 64 (Config.Validate), so shift
// counts are masked with 63, which spares the compiler's oversized-shift
// handling on these paths; tick does the same.
func (cu *CU) noteRunnable(wf *Wavefront) {
	cu.simds[wf.SIMD].runMask |= 1 << (uint(wf.QPos) & 63)
	cu.ready |= 1 << (uint(wf.SIMD) & 63)
}

func (cu *CU) noteBlocked(wf *Wavefront) {
	sm := &cu.simds[wf.SIMD]
	sm.runMask &^= 1 << (uint(wf.QPos) & 63)
	if sm.runMask == 0 {
		cu.ready &^= 1 << (uint(wf.SIMD) & 63)
	}
}

// noteMemBlocked and noteMemWake maintain the memory-blocked counts that
// classify idle intervals; call them when a wave enters or leaves
// WFWaitCnt/WFThrottled.
func (cu *CU) noteMemBlocked(wf *Wavefront) {
	cu.blockedMem++
	if wf.OutStores > 0 {
		cu.blockedStore++
	}
}

func (cu *CU) noteMemWake(wf *Wavefront) {
	cu.blockedMem--
	if wf.OutStores > 0 {
		cu.blockedStore--
	}
}

// thrPush appends wave slot w to the MSHR replay queue.
func (cu *CU) thrPush(w int32) {
	i := cu.thrHead + cu.throttled
	if n := int32(len(cu.thrQ)); i >= n {
		i -= n
	}
	cu.thrQ[i] = w
	cu.throttled++
}

// thrPop removes and returns the head of the MSHR replay queue.
func (cu *CU) thrPop() int32 {
	w := cu.thrQ[cu.thrHead]
	cu.thrHead++
	if cu.thrHead >= int32(len(cu.thrQ)) {
		cu.thrHead = 0
	}
	cu.throttled--
	return w
}

// freeSlots returns the number of free wavefront slots.
func (cu *CU) freeSlots() int {
	n := 0
	for i := range cu.WFs {
		if cu.WFs[i].State == WFFree {
			n++
		}
	}
	return n
}

// execOutcome classifies one issue attempt.
type execOutcome uint8

const (
	outIssued  execOutcome = iota // SIMD consumed
	outBlocked                    // wavefront changed to a blocked state
	outSkipped                    // structural hazard (MSHRs); try another wave
)

// tick advances the CU by one cycle at time now. The CU only ever ticks at
// "interesting" times — scheduleCU leaps it straight to the next cycle at
// which some runnable wavefront's SIMD is free — so the span since the
// previous tick is charged to the GPU cycle budget here: skipping cycles
// must not loosen Config.MaxCycles.
func (cu *CU) tick(g *GPU, now clock.Time) {
	dom := &g.Domains[cu.Domain]
	period := dom.PeriodPs()
	// One cycle since a consecutive tick, else every skipped one too.
	g.Cycles += clock.Max(1, dom.PeriodsIn(now-cu.cycleMark))
	cu.cycleMark = now
	// free has bit s set iff SIMD s is idle at now. Only SIMD s's own
	// issue moves its busy time, so the mask holds for the whole tick;
	// it is built without a branch per SIMD, as which SIMDs are busy
	// changes every cycle.
	var free uint64
	for s := range cu.simds {
		free |= uint64((now-cu.simds[s].freeAt)>>63+1) << (uint(s) & 63)
	}
	issued := false
	// Visit idle SIMDs with a runnable wave in ascending order. The ready
	// mask is re-read after each SIMD: an exec can make a higher-numbered
	// SIMD runnable (barrier release, or a retire dispatching a new
	// workgroup), and the ascending scan must still reach it this cycle.
	for rm := cu.ready & free; rm != 0; {
		s := bits.TrailingZeros64(rm)
		sm := &cu.simds[s]
		// Oldest-first among runnable waves bound to this SIMD (the queue
		// is age-ordered), skipping waves that block or hit a structural
		// hazard without consuming the SIMD. The cursor is monotonic: a
		// wave at or below qi that becomes runnable during exec (barrier
		// release) is not revisited this cycle. The queue is only edited
		// on the outIssued path (retire), which breaks, so q stays valid
		// across iterations.
		q := sm.q
		for m := sm.runMask; m != 0; {
			qi := bits.TrailingZeros64(m)
			w := int(q[qi])
			// ALU instructions, the bulk of every program, issue right
			// here; exec handles every other kind.
			if wf := &cu.WFs[w]; wf.op.IsCompute() {
				occ := clock.Time(wf.lat) * period
				wf.jump(wf.PC + 1)
				sm.freeAt = now + occ
				wf.C.OccupancyPs += occ
				cu.C.OccupancyPs += occ
				cu.C.IssueSlots++
				cu.commit(g, wf)
				issued = true
				break
			}
			if cu.exec(g, w, s, now, period) == outIssued {
				issued = true
				break
			}
			m = sm.runMask & (^uint64(1) << (uint(qi) & 63)) // positions above qi
		}
		rm = cu.ready & free & (^uint64(1) << (uint(s) & 63)) // SIMDs above s
	}
	if issued && cu.LoadsInFlight > 0 {
		cu.C.OverlapPs += period
	}
	g.scheduleCU(cu, now)
}

// enqueue registers a freshly dispatched (WFRunning) slot on its SIMD's
// age-ordered queue, caching the wave's SIMD binding.
func (cu *CU) enqueue(slot int32) {
	wf := &cu.WFs[slot]
	wf.SIMD = int32(wf.GlobalWave % int64(len(cu.simds)))
	sm := &cu.simds[wf.SIMD]
	wf.QPos = int32(len(sm.q))
	sm.q = append(sm.q, slot)
	cu.noteRunnable(wf)
}

// dequeue removes a retiring slot from its SIMD queue, compacting the
// queue positions and run-mask bits above it. Retire is the only caller
// and always runs while the wave is still WFRunning.
func (cu *CU) dequeue(slot int32) {
	wf := &cu.WFs[slot]
	s, i := wf.SIMD, wf.QPos
	cu.noteBlocked(wf)
	sm := &cu.simds[s]
	sm.q = append(sm.q[:i], sm.q[i+1:]...)
	for j := int(i); j < len(sm.q); j++ {
		cu.WFs[sm.q[j]].QPos = int32(j)
	}
	m := sm.runMask
	low := m & (1<<uint(i) - 1)
	sm.runMask = low | m>>uint(i+1)<<uint(i)
}

// exec attempts to issue wave w's next instruction, which is not an ALU
// instruction (tick issues those itself), on SIMD s. Branches, waitcnts
// and memory instructions occupy the SIMD for one cycle and share one
// issue tail here; memory issue and the rare kinds live in their own
// functions so this one stays small enough to keep its state in
// registers.
func (cu *CU) exec(g *GPU, w, s int, now clock.Time, period clock.Time) execOutcome {
	wf := &cu.WFs[w]
	in := &wf.code[wf.PC]
	switch in.Kind {
	case isa.Branch:
		i := w*int(cu.loopStride) + int(in.BranchSlot)
		if cu.loopArena[i] > 0 {
			cu.loopArena[i]--
			wf.jump(in.Imm)
		} else {
			cu.loopArena[i] = cu.reloadArena[i]
			wf.jump(wf.PC + 1)
		}
	case isa.WaitCnt:
		if wf.OutLoads+wf.OutStores > in.Imm {
			cu.waitMem(wf, in.Imm, now)
			return outBlocked
		}
		wf.jump(wf.PC + 1)
	case isa.VLoad, isa.VStore:
		if !cu.issueMem(g, wf, w, in, now, period) {
			return outBlocked
		}
		wf.jump(wf.PC + 1)
	default:
		return cu.execRare(g, wf, w, s, in, now, period)
	}
	cu.simds[s].freeAt = now + period
	wf.C.OccupancyPs += period
	cu.C.OccupancyPs += period
	cu.C.IssueSlots++
	cu.commit(g, wf)
	return outIssued
}

// commit counts one committed instruction of wf.
func (cu *CU) commit(g *GPU, wf *Wavefront) {
	cu.C.Committed++
	wf.C.Committed++
	g.TotalCommitted++
}

// waitMem blocks wf until its outstanding memory lines drop to thresh.
func (cu *CU) waitMem(wf *Wavefront, thresh int32, now clock.Time) {
	wf.State = WFWaitCnt
	wf.WaitThresh = thresh
	wf.BlockedSince = now
	cu.noteBlocked(wf)
	cu.noteMemBlocked(wf)
}

// issueMem issues the lines of memory instruction in for wave w, or
// throttles the wave when they do not fit the free L1 MSHRs. It reports
// whether the instruction issued; the caller then finishes the issue
// (SIMD occupancy, commit, PC).
func (cu *CU) issueMem(g *GPU, wf *Wavefront, w int, in *isa.Instruction, now, period clock.Time) bool {
	lines := int32(in.Pattern.Lines)
	if cu.L1MissOut+lines > int32(g.Cfg.Mem.L1MSHRs) {
		// MSHR backpressure: block the wave as memory stall until a
		// miss completes, exactly like an implicit waitcnt. Leaving
		// it runnable would misaccount memory-system time as
		// frequency-scalable core time.
		wf.State = WFThrottled
		wf.ThrLines = lines
		wf.BlockedSince = now
		cu.noteBlocked(wf)
		cu.noteMemBlocked(wf)
		cu.thrPush(int32(w))
		return false
	}
	store := in.Kind == isa.VStore
	for l := int32(0); l < lines; l++ {
		addr := wf.lineAddr(&in.Pattern, int(l))
		cu.C.LinesIssued++
		if !store && cu.L1.Probe(addr) {
			cu.C.L1Hits++
			g.scheduleLocal(mem.Request{
				Addr: addr, CU: cu.ID, WF: int32(w),
				Issue: now,
			}, now+clock.Time(g.Cfg.Mem.L1Latency)*period)
			wf.OutLoads++
			cu.LoadsInFlight++
			continue
		}
		leading := !store && cu.LoadsInFlight == 0
		if !store {
			cu.C.L1Misses++
		}
		g.submit(mem.Request{
			Addr: addr, CU: cu.ID, WF: int32(w),
			Store: store, Issue: now, Leading: leading,
		})
		cu.L1MissOut++
		if store {
			wf.OutStores++
			cu.StoresInFlight++
		} else {
			wf.OutLoads++
			cu.LoadsInFlight++
		}
	}
	wf.MemCounter++
	cu.C.MemCommitted++
	return true
}

// execRare executes the kinds that do not issue every few cycles:
// barriers, program end, and (for a program corrupted in flight) unknown
// kinds.
func (cu *CU) execRare(g *GPU, wf *Wavefront, w, s int, in *isa.Instruction, now, period clock.Time) execOutcome {
	switch in.Kind {
	case isa.Barrier:
		// A last arrival's barrier commits during the release, and the
		// wave may issue again next cycle; either way this cycle's issue
		// attempt is over.
		wf.State = WFBarrier
		wf.BlockedSince = now
		cu.noteBlocked(wf)
		cu.blockedBarrier++
		cu.tryReleaseBarrier(g, wf.WG, now)
		return outBlocked

	case isa.EndPgm:
		if wf.OutLoads+wf.OutStores > 0 {
			// Implicit waitcnt 0 before program end so responses never
			// target a recycled slot.
			cu.waitMem(wf, 0, now)
			return outBlocked
		}
		cu.simds[s].freeAt = now + period
		wf.C.OccupancyPs += period
		cu.C.OccupancyPs += period
		cu.C.IssueSlots++
		cu.commit(g, wf)
		cu.retire(g, w, now)
		return outIssued

	default:
		// Unreachable for kernels validated by New (Program.Validate
		// rejects unknown kinds); a program corrupted in flight degrades
		// to a structured watchdog stop instead of a panic.
		g.Stuck = &DeadlockError{
			Kind: DeadlockBadInstr, CU: cu.ID, Slot: int32(w),
			WG: wf.WG, GlobalWave: wf.GlobalWave, PC: g.Kernels[wf.Kernel].Program.PC(wf.PC),
			Now: now, Cycles: g.Cycles, Waiting: g.residentWaves(),
		}
		return outBlocked
	}
}

// tryReleaseBarrier releases workgroup wg's waves if all have arrived.
func (cu *CU) tryReleaseBarrier(g *GPU, wg int64, now clock.Time) {
	arrived := int32(0)
	var size int32
	for i := range cu.WFs {
		wf := &cu.WFs[i]
		if wf.State == WFBarrier && wf.WG == wg {
			arrived++
			size = wf.WGSize
		}
	}
	if arrived < size {
		return
	}
	for i := range cu.WFs {
		wf := &cu.WFs[i]
		if wf.State != WFBarrier || wf.WG != wg {
			continue
		}
		wf.C.BarrierPs += now - wf.BlockedSince
		wf.State = WFRunning
		cu.noteRunnable(wf)
		cu.blockedBarrier--
		cu.commit(g, wf)
		wf.jump(wf.PC + 1)
	}
}

// retire frees a completed wavefront's slot, flushing its epoch record.
func (cu *CU) retire(g *GPU, w int, now clock.Time) {
	wf := &cu.WFs[w]
	prog := &g.Kernels[wf.Kernel].Program
	cu.Retired = append(cu.Retired, WFRecord{
		Slot:       int32(w),
		GlobalWave: wf.GlobalWave,
		StartPC:    wf.EpochStartPC,
		EndPC:      prog.PC(wf.PC),
		Done:       true,
		ResidentPs: wf.resident(g.EpochStart, now),
		C:          wf.C,
	})
	cu.dequeue(int32(w))
	wf.State = WFFree
	cu.ActiveWaves--
	g.noteWaveDone(now)
}

// beginIdle classifies and opens an idle interval at time now, O(1) from
// the maintained blocked counts.
func (cu *CU) beginIdle(now clock.Time) {
	if cu.IdleSince != noIdle {
		return
	}
	cu.IdleSince = now
	cu.idleMemWait = cu.blockedMem > 0
	cu.idleStore = cu.idleMemWait && cu.blockedStore > 0
	cu.idleBarrier = !cu.idleMemWait && cu.blockedBarrier > 0
}

// closeIdle ends an open idle interval at time now, attributing the
// blocked time to the estimation-model counters.
func (cu *CU) closeIdle(now clock.Time) {
	if cu.IdleSince == noIdle {
		return
	}
	dur := now - cu.IdleSince
	if dur > 0 && cu.ActiveWaves > 0 {
		if cu.idleMemWait {
			cu.C.MemBlockedPs += dur
			if cu.idleStore {
				cu.C.StoreStallPs += dur
			}
		} else if cu.idleBarrier {
			cu.C.BarrierOnlyPs += dur
		}
	}
	cu.IdleSince = noIdle
}

// closeEpochStamps closes open blocked intervals at the epoch boundary so
// their time lands in the finishing epoch.
func (cu *CU) closeEpochStamps(end clock.Time) {
	cu.closeIdle(end)
	for i := range cu.WFs {
		wf := &cu.WFs[i]
		switch wf.State {
		case WFWaitCnt, WFThrottled:
			wf.C.StallPs += end - wf.BlockedSince
			wf.BlockedSince = end
		case WFBarrier:
			wf.C.BarrierPs += end - wf.BlockedSince
			wf.BlockedSince = end
		}
	}
}

// resetEpochState clears per-epoch counters for a new epoch starting at
// end. Together with closeEpochStamps it has exactly collect's state
// effects, minus building the sample.
func (cu *CU) resetEpochState(g *GPU, end clock.Time) {
	cu.C = CUCounters{}
	cu.Retired = cu.Retired[:0]
	for i := range cu.WFs {
		wf := &cu.WFs[i]
		if wf.State == WFFree {
			continue
		}
		wf.C.reset()
		prog := &g.Kernels[wf.Kernel].Program
		wf.EpochStartPC = prog.PC(wf.PC)
		if wf.DispatchedAt < end {
			wf.DispatchedAt = end // clamp residency to the new epoch
		}
	}
	// Re-open the idle interval if the CU is still blocked.
	if cu.ready == 0 && cu.ActiveWaves > 0 {
		cu.beginIdle(end)
	}
}

// collect finalizes the epoch ending at end and fills rec (reused across
// epochs) with this CU's sample, then resets epoch state for the next
// epoch starting at end.
func (cu *CU) collect(g *GPU, end clock.Time, out *CUEpoch) {
	cu.closeEpochStamps(end)

	out.CU = cu.ID
	out.C = cu.C
	out.WFs = out.WFs[:0]
	out.WFs = append(out.WFs, cu.Retired...)
	for i := range cu.WFs {
		wf := &cu.WFs[i]
		if wf.State == WFFree {
			continue
		}
		prog := &g.Kernels[wf.Kernel].Program
		out.WFs = append(out.WFs, WFRecord{
			Slot:       int32(i),
			GlobalWave: wf.GlobalWave,
			StartPC:    wf.EpochStartPC,
			EndPC:      prog.PC(wf.PC),
			ResidentPs: wf.resident(g.EpochStart, end),
			C:          wf.C,
		})
	}
	// Age ranks: 0 = oldest (highest priority under oldest-first).
	// GlobalWave values are unique, so this insertion sort (records are
	// nearly sorted already) yields the same order any sort would, without
	// sort.Slice's per-call allocations.
	recs := out.WFs
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		j := i - 1
		for j >= 0 && recs[j].GlobalWave > r.GlobalWave {
			recs[j+1] = recs[j]
			j--
		}
		recs[j+1] = r
	}
	for i := range recs {
		recs[i].AgeRank = int32(i)
	}

	cu.resetEpochState(g, end)
}

// cloneInto deep-copies the CU into dst, reusing dst's slice capacity.
// Loop state lives in two flat arenas, so the copy is a handful of slice
// copies regardless of resident wave count; the L1 tag arrays are shared
// copy-on-write. dst's L1 must hold no share (fresh or Released).
func (cu *CU) cloneInto(dst *CU) {
	old := *dst
	*dst = *cu
	dst.WFs = reuse(old.WFs, cu.WFs)
	dst.loopArena = reuse(old.loopArena, cu.loopArena)
	dst.reloadArena = reuse(old.reloadArena, cu.reloadArena)
	dst.thrQ = reuse(old.thrQ, cu.thrQ)
	dst.L1 = cu.L1.Clone()
	dst.Retired = append(old.Retired[:0], cu.Retired...)
	simds := old.simds
	if cap(simds) < len(cu.simds) {
		simds = make([]simdState, len(cu.simds))
	}
	simds = simds[:len(cu.simds)]
	for s := range cu.simds {
		q := simds[s].q // dst's own queue array, reused
		simds[s] = cu.simds[s]
		simds[s].q = append(q[:0], cu.simds[s].q...)
	}
	dst.simds = simds
}
