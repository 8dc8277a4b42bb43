package sim

import (
	"pcstall/internal/clock"
	"pcstall/internal/isa"
	"pcstall/internal/xrand"
)

// WFState is a wavefront slot's lifecycle state.
type WFState uint8

const (
	// WFFree marks an empty slot available for dispatch.
	WFFree WFState = iota
	// WFRunning marks a wavefront eligible to issue.
	WFRunning
	// WFWaitCnt marks a wavefront blocked at s_waitcnt.
	WFWaitCnt
	// WFBarrier marks a wavefront blocked at a workgroup barrier.
	WFBarrier
	// WFThrottled marks a wavefront whose memory instruction cannot
	// issue because the CU's L1 MSHRs are full — memory-system
	// backpressure, accounted as stall time just like s_waitcnt.
	WFThrottled
)

// Wavefront is one resident 64-lane wave. It is plain data; copying the
// struct snapshots it (its loop trip counters live in the owning CU's
// arenas). Fields are ordered so the ones every issue touches share the
// struct's first 64 bytes and the per-epoch counters the next 64.
type Wavefront struct {
	// code is the kernel program's instruction slice (shared, read-only),
	// cached at dispatch so issue and wake need not index GPU.Kernels.
	code []isa.Instruction
	// PC is the current instruction index within the kernel's program.
	PC int32
	// SIMD is the issue unit this wave is bound to (GlobalWave modulo the
	// CU's SIMD count, cached at dispatch by CU.enqueue).
	SIMD int32
	// QPos is this wave's position within its SIMD's age queue,
	// maintained by CU.enqueue/dequeue so run-mask updates are O(1).
	QPos int32
	// OutLoads and OutStores count in-flight memory lines.
	OutLoads  int32
	OutStores int32
	// WaitThresh is the s_waitcnt threshold while State == WFWaitCnt.
	WaitThresh int32
	// MemCounter counts executed memory instructions (address stream
	// position for streaming patterns).
	MemCounter uint32
	// ThrLines caches the line count of the memory instruction a
	// WFThrottled wave is parked on, so the MSHR replay loop can check
	// capacity without chasing kernel program pointers.
	ThrLines int32
	State    WFState
	// op and lat are the kind and latency of code[PC], kept by jump so an
	// issue attempt reads them here instead of chasing the code slice.
	op  isa.Kind
	lat uint8
	// Kernel indexes GPU.Kernels.
	Kernel int32
	C      WFCounters
	// Rng drives this wave's random access patterns.
	Rng xrand.State
	// GlobalWave is the global dispatch index (also the age key for
	// oldest-first scheduling: smaller = older).
	GlobalWave int64
	// BlockedSince is when the wave entered WFWaitCnt or WFBarrier.
	BlockedSince clock.Time
	// WG is the global workgroup ID this wave belongs to.
	WG int64
	// WGSize is the number of waves in the workgroup (for barriers).
	WGSize int32
	// DispatchedAt is when the wave became resident.
	DispatchedAt clock.Time
	// EpochStartPC is the byte PC at the start of the current epoch.
	EpochStartPC uint64
}

// init prepares a freshly dispatched wavefront in place. loop and reload
// are the slot's trip-counter windows in its CU's arenas (at least
// prog.BranchSlots long): loop holds the remaining trip count of each
// branch slot, reload its per-wave reload value (trip-1 with the
// program's per-wave jitter applied here).
func (wf *Wavefront) init(k int32, prog *isa.Program, wg int64, wgSize int32, globalWave int64, now clock.Time, rng xrand.State, loop, reload []int32) {
	wf.State = WFRunning
	wf.Kernel = k
	wf.code = prog.Code
	wf.jump(0)
	wf.WG = wg
	wf.WGSize = wgSize
	wf.GlobalWave = globalWave
	wf.DispatchedAt = now
	wf.OutLoads = 0
	wf.OutStores = 0
	wf.WaitThresh = 0
	wf.BlockedSince = 0
	wf.Rng = rng
	wf.MemCounter = 0
	wf.EpochStartPC = prog.PC(0)
	wf.C.reset()

	for _, in := range prog.Code {
		if in.Kind != isa.Branch {
			continue
		}
		r := in.Trip - 1
		if in.TripVar > 0 {
			r += int32(wf.Rng.Intn(int(2*in.TripVar+1))) - in.TripVar
			if r < 0 {
				r = 0
			}
		}
		loop[in.BranchSlot] = r
		reload[in.BranchSlot] = r
	}
}

// jump moves the wave to instruction pc.
func (wf *Wavefront) jump(pc int32) {
	wf.PC = pc
	in := &wf.code[pc]
	wf.op, wf.lat = in.Kind, in.Latency
}

// lineAddr produces the line-aligned address for request line i of the
// wavefront's next execution of a memory instruction with pattern p.
func (wf *Wavefront) lineAddr(p *isa.AccessPattern, line int) uint64 {
	const lineBytes = 64
	var off uint64
	switch p.Kind {
	case isa.PatStream, isa.PatStrided:
		// Each wave walks its own lane of the region with the pattern
		// stride; the golden-ratio wave offset spreads partitions.
		base := uint64(wf.GlobalWave) * 0x9E3779B1 * lineBytes
		off = (base + uint64(wf.MemCounter)*uint64(p.Stride)) % p.WorkingSet
	case isa.PatRandom:
		off = wf.Rng.Uint64() % p.WorkingSet
	case isa.PatShared:
		// All waves walk the same stream positions, giving heavy L2
		// reuse — and L2 thrashing once the shared set outgrows L2.
		off = (uint64(wf.MemCounter) * uint64(p.Stride)) % p.WorkingSet
	default:
		off = 0
	}
	addr := p.Base + off + uint64(line)*lineBytes
	return addr &^ (lineBytes - 1)
}

// resident returns the wavefront's residency within [start, end).
func (wf *Wavefront) resident(start, end clock.Time) int64 {
	s := start
	if wf.DispatchedAt > s {
		s = wf.DispatchedAt
	}
	if end <= s {
		return 0
	}
	return end - s
}
