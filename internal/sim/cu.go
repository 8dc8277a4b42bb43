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
	// SIMDFreeAt is the time each SIMD finishes its current instruction.
	SIMDFreeAt []clock.Time
	L1         mem.Cache
	// L1MissOut is the number of in-flight L1 misses (MSHR occupancy).
	L1MissOut int32
	// LoadsInFlight and StoresInFlight count this CU's in-flight lines.
	LoadsInFlight  int32
	StoresInFlight int32
	// CritEnd is the end of the load critical path seen so far.
	CritEnd clock.Time
	// ActiveWaves counts occupied wavefront slots.
	ActiveWaves int32
	// simdQ[s] lists the occupied slots bound to SIMD s in age order
	// (GlobalWave ascending); dispatch appends (wave IDs are monotonic)
	// and retire removes.
	simdQ [][]int32
	// runnable[s] counts WFRunning waves on SIMD s, maintained at every
	// state transition so scheduleCU and tick are O(#SIMDs) instead of
	// scanning wave slots.
	runnable []int32
	// runMask[s] mirrors runnable as a bitmask over simdQ positions: bit
	// p is set iff cu.WFs[simdQ[s][p]].State == WFRunning. tick jumps
	// straight to the oldest runnable wave with a trailing-zero count
	// instead of walking past blocked queue entries. Only maintained
	// when MaxWavesPerCU ≤ 64 (nil otherwise; tick then falls back to
	// the sequential scan).
	runMask []uint64
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
	// loopArena and reloadArena back every resident wavefront's Loop and
	// LoopReload slices (slot i owns [i*loopStride, (i+1)*loopStride)), so
	// dispatch and clone never allocate per-wave loop state.
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

const noIdle = clock.Time(-1)

func newCU(id int32, domain int32, cfg *Config, maxBranchSlots int) CU {
	cu := CU{
		ID:         id,
		Domain:     domain,
		WFs:        make([]Wavefront, cfg.MaxWavesPerCU),
		SIMDFreeAt: make([]clock.Time, cfg.SIMDsPerCU),
		L1:         cfg.Mem.NewL1(),
		IdleSince:  noIdle,
		simdQ:      make([][]int32, cfg.SIMDsPerCU),
		runnable:   make([]int32, cfg.SIMDsPerCU),
		loopStride: int32(maxBranchSlots),
	}
	if cfg.MaxWavesPerCU <= 64 {
		cu.runMask = make([]uint64, cfg.SIMDsPerCU)
	}
	cu.thrQ = make([]int32, cfg.MaxWavesPerCU)
	if maxBranchSlots > 0 {
		cu.loopArena = make([]int32, maxBranchSlots*cfg.MaxWavesPerCU)
		cu.reloadArena = make([]int32, maxBranchSlots*cfg.MaxWavesPerCU)
		for i := range cu.WFs {
			off := i * maxBranchSlots
			// Zero-length windows with full capacity; Wavefront.init
			// reslices within the window instead of allocating.
			cu.WFs[i].Loop = cu.loopArena[off : off : off+maxBranchSlots]
			cu.WFs[i].LoopReload = cu.reloadArena[off : off : off+maxBranchSlots]
		}
	}
	return cu
}

// noteRunnable and noteBlocked maintain the per-SIMD runnable counts and
// run masks; they must bracket every WFRunning transition. The wave's
// SIMD binding is cached in wf.SIMD and its queue position in wf.QPos,
// both maintained by enqueue/dequeue.
func (cu *CU) noteRunnable(wf *Wavefront) {
	cu.runnable[wf.SIMD]++
	if cu.runMask != nil {
		cu.runMask[wf.SIMD] |= 1 << uint(wf.QPos)
	}
}

func (cu *CU) noteBlocked(wf *Wavefront) {
	cu.runnable[wf.SIMD]--
	if cu.runMask != nil {
		cu.runMask[wf.SIMD] &^= 1 << uint(wf.QPos)
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
	if now-cu.cycleMark <= period {
		g.Cycles++ // common case: consecutive cycles
	} else {
		dc := (now - cu.cycleMark) / period
		if dc < 1 {
			dc = 1
		}
		g.Cycles += dc
	}
	cu.cycleMark = now
	issued := false
	for s := 0; s < len(cu.SIMDFreeAt); s++ {
		if cu.SIMDFreeAt[s] > now || cu.runnable[s] == 0 {
			continue
		}
		// Oldest-first among runnable waves bound to this SIMD (the
		// queue is age-ordered), skipping waves that block or hit a
		// structural hazard without consuming the SIMD.
		q := cu.simdQ[s]
		if cu.runMask != nil {
			// Jump straight to each runnable queue position instead of
			// walking past blocked entries. The cursor is monotonic: a
			// wave at or below qi that becomes runnable during exec
			// (barrier release) is not revisited this cycle, matching the
			// sequential scan, which had already passed it. The queue is
			// only edited on the outIssued path (retire), which breaks,
			// so q stays valid across iterations.
			for m := cu.runMask[s]; m != 0; {
				qi := bits.TrailingZeros64(m)
				out := cu.exec(g, int(q[qi]), s, now, period)
				if out == outIssued {
					issued = true
					break
				}
				m = cu.runMask[s] &^ (1<<uint(qi+1) - 1)
			}
		} else {
			for qi := 0; qi < len(q); qi++ {
				w := int(q[qi])
				if cu.WFs[w].State != WFRunning {
					continue
				}
				out := cu.exec(g, w, s, now, period)
				if out == outIssued {
					issued = true
					break
				}
				// The queue may have been edited by a retire during exec
				// (barrier release chains); re-read it defensively.
				q = cu.simdQ[s]
			}
		}
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
	wf.SIMD = int32(wf.GlobalWave % int64(len(cu.SIMDFreeAt)))
	wf.QPos = int32(len(cu.simdQ[wf.SIMD]))
	cu.simdQ[wf.SIMD] = append(cu.simdQ[wf.SIMD], slot)
	cu.noteRunnable(wf)
}

// dequeue removes a retiring slot from its SIMD queue, compacting the
// queue positions and run-mask bits above it. Retire is the only caller
// and always runs while the wave is still WFRunning.
func (cu *CU) dequeue(slot int32) {
	wf := &cu.WFs[slot]
	s, i := wf.SIMD, wf.QPos
	cu.noteBlocked(wf)
	q := cu.simdQ[s]
	cu.simdQ[s] = append(q[:i], q[i+1:]...)
	q = cu.simdQ[s]
	for j := int(i); j < len(q); j++ {
		cu.WFs[q[j]].QPos = int32(j)
	}
	if cu.runMask != nil {
		m := cu.runMask[s]
		low := m & (1<<uint(i) - 1)
		cu.runMask[s] = low | m>>uint(i+1)<<uint(i)
	}
}

func (cu *CU) commit(g *GPU, wf *Wavefront, memOp bool) {
	cu.C.Committed++
	wf.C.Committed++
	if memOp {
		cu.C.MemCommitted++
	}
	g.TotalCommitted++
}

// exec attempts to issue the wavefront's next instruction on SIMD s.
func (cu *CU) exec(g *GPU, w, s int, now clock.Time, period clock.Time) execOutcome {
	wf := &cu.WFs[w]
	prog := &g.Kernels[wf.Kernel].Program
	in := &prog.Code[wf.PC]

	switch in.Kind {
	case isa.VALU, isa.SALU, isa.LDS:
		occ := clock.Time(in.Latency) * period
		cu.SIMDFreeAt[s] = now + occ
		wf.C.OccupancyPs += occ
		cu.C.OccupancyPs += int64(occ)
		cu.C.IssueSlots++
		cu.commit(g, wf, false)
		wf.PC++
		return outIssued

	case isa.VLoad, isa.VStore:
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
			return outBlocked
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
		cu.SIMDFreeAt[s] = now + period
		wf.C.OccupancyPs += period
		cu.C.OccupancyPs += int64(period)
		cu.C.IssueSlots++
		cu.commit(g, wf, true)
		wf.PC++
		return outIssued

	case isa.WaitCnt:
		if wf.OutLoads+wf.OutStores <= in.Imm {
			cu.SIMDFreeAt[s] = now + period
			wf.C.OccupancyPs += period
			cu.C.OccupancyPs += int64(period)
			cu.C.IssueSlots++
			cu.commit(g, wf, false)
			wf.PC++
			return outIssued
		}
		wf.State = WFWaitCnt
		wf.WaitThresh = in.Imm
		wf.BlockedSince = now
		cu.noteBlocked(wf)
		cu.noteMemBlocked(wf)
		return outBlocked

	case isa.Barrier:
		wf.State = WFBarrier
		wf.BlockedSince = now
		cu.noteBlocked(wf)
		cu.blockedBarrier++
		cu.tryReleaseBarrier(g, wf.WG, now)
		if wf.State == WFRunning {
			// This wave was the last arrival; its barrier committed
			// during the release. It may issue again next cycle.
			return outBlocked
		}
		return outBlocked

	case isa.Branch:
		slot := in.BranchSlot
		if wf.Loop[slot] > 0 {
			wf.Loop[slot]--
			wf.PC = in.Imm
		} else {
			wf.Loop[slot] = wf.LoopReload[slot]
			wf.PC++
		}
		cu.SIMDFreeAt[s] = now + period
		wf.C.OccupancyPs += period
		cu.C.OccupancyPs += int64(period)
		cu.C.IssueSlots++
		cu.commit(g, wf, false)
		return outIssued

	case isa.EndPgm:
		if wf.OutLoads+wf.OutStores > 0 {
			// Implicit waitcnt 0 before program end so responses never
			// target a recycled slot.
			wf.State = WFWaitCnt
			wf.WaitThresh = 0
			wf.BlockedSince = now
			cu.noteBlocked(wf)
			cu.noteMemBlocked(wf)
			return outBlocked
		}
		cu.SIMDFreeAt[s] = now + period
		wf.C.OccupancyPs += period
		cu.C.OccupancyPs += int64(period)
		cu.C.IssueSlots++
		cu.commit(g, wf, false)
		cu.retire(g, w, now)
		return outIssued

	default:
		// Unreachable for kernels validated by New (Program.Validate
		// rejects unknown kinds); a program corrupted in flight degrades
		// to a structured watchdog stop instead of a panic.
		g.Stuck = &DeadlockError{
			Kind: DeadlockBadInstr, CU: cu.ID, Slot: int32(w),
			WG: wf.WG, GlobalWave: wf.GlobalWave, PC: prog.PC(wf.PC),
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
		cu.commit(g, wf, false)
		wf.PC++
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

// canIssue reports whether any wavefront could issue now or once a SIMD
// frees (used to decide whether the CU may sleep).
func (cu *CU) canIssue() bool {
	for _, n := range cu.runnable {
		if n > 0 {
			return true
		}
	}
	return false
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
	if !cu.canIssue() && cu.ActiveWaves > 0 {
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
	if stride := int(cu.loopStride); stride > 0 {
		for i := range dst.WFs {
			w := &dst.WFs[i]
			off := i * stride
			w.Loop = dst.loopArena[off : off+len(w.Loop) : off+stride]
			w.LoopReload = dst.reloadArena[off : off+len(w.LoopReload) : off+stride]
		}
	}
	dst.SIMDFreeAt = reuse(old.SIMDFreeAt, cu.SIMDFreeAt)
	dst.runnable = reuse(old.runnable, cu.runnable)
	dst.runMask = reuse(old.runMask, cu.runMask)
	dst.thrQ = reuse(old.thrQ, cu.thrQ)
	dst.L1 = cu.L1.Clone()
	dst.Retired = reuse(old.Retired, cu.Retired)
	simdQ := old.simdQ
	if cap(simdQ) < len(cu.simdQ) {
		simdQ = make([][]int32, len(cu.simdQ))
	}
	dst.simdQ = simdQ[:len(cu.simdQ)]
	for s := range cu.simdQ {
		dst.simdQ[s] = append(dst.simdQ[s][:0], cu.simdQ[s]...)
	}
}
