// Package isa defines the instruction set executed by the GPU timing
// simulator.
//
// The instruction set is a deliberately small abstraction of the AMD GCN3 /
// Vega ISA the paper simulates: vector and scalar ALU ops with SIMD
// occupancy latencies, vector memory loads/stores that generate cache-line
// requests, the s_waitcnt instruction that blocks a wavefront until its
// outstanding memory counter drains (the signal the STALL estimation model
// measures), workgroup barriers, and counted backward branches that give
// kernels their loop structure. Programs are value types — a flat slice of
// Instruction — so the simulator can snapshot cheaply and index the
// PC-based predictor with stable byte addresses.
package isa

import "fmt"

// Kind enumerates instruction categories. The timing simulator dispatches
// on Kind; estimation models classify committed instructions by Kind.
type Kind uint8

const (
	// VALU is a vector ALU operation occupying a SIMD for Latency cycles.
	VALU Kind = iota
	// SALU is a scalar ALU operation (single-cycle unless overridden).
	SALU
	// LDS is a local-data-share access; on-chip, frequency-scaled.
	LDS
	// VLoad is a vector memory load. It issues Lines cache-line requests
	// to the memory hierarchy and increments the wavefront's outstanding
	// load counter; it commits at issue (GCN loads are fire-and-forget
	// until a waitcnt).
	VLoad
	// VStore is a vector memory store, tracked by the outstanding store
	// counter.
	VStore
	// WaitCnt blocks the wavefront until outstanding memory operations
	// drop to Imm or fewer. Blocked time is the per-wavefront stall
	// signal used by the STALL estimation model.
	WaitCnt
	// Barrier blocks the wavefront until all wavefronts of its workgroup
	// arrive.
	Barrier
	// Branch is a counted backward branch: the wavefront jumps to Imm
	// while its private trip counter for this branch is nonzero, then
	// reloads the counter and falls through.
	Branch
	// EndPgm terminates the wavefront.
	EndPgm
)

// String returns the mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case VALU:
		return "v_alu"
	case SALU:
		return "s_alu"
	case LDS:
		return "ds_op"
	case VLoad:
		return "v_load"
	case VStore:
		return "v_store"
	case WaitCnt:
		return "s_waitcnt"
	case Barrier:
		return "s_barrier"
	case Branch:
		return "s_branch"
	case EndPgm:
		return "s_endpgm"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsMemory reports whether the kind issues requests to the memory
// hierarchy.
func (k Kind) IsMemory() bool { return k == VLoad || k == VStore }

// IsCompute reports whether the kind executes entirely inside the CU's
// clock domain (and therefore scales with core frequency). The compute
// kinds are the first three constants, so this is one comparison (the
// simulator asks it on every issue).
func (k Kind) IsCompute() bool { return k <= LDS }

// PatternKind enumerates how a memory instruction generates addresses.
type PatternKind uint8

const (
	// PatNone marks a non-memory instruction.
	PatNone PatternKind = iota
	// PatStream walks the working set with a fixed stride per access,
	// partitioned per wavefront (perfectly coalesced streaming).
	PatStream
	// PatStrided walks with a large stride, defeating some spatial
	// locality (e.g. column-major accesses).
	PatStrided
	// PatRandom picks uniformly random lines within the working set
	// (e.g. Monte Carlo table lookups — xsbench, quickS).
	PatRandom
	// PatShared picks random lines within a working set shared by all
	// CUs, creating L2 contention and, when the set exceeds L2, the
	// thrashing behaviour the paper observes for FwdSoft.
	PatShared
)

// AccessPattern describes the address stream of one memory instruction.
type AccessPattern struct {
	Kind PatternKind
	// Base is the byte address of the region start. Regions of distinct
	// instructions should not overlap unless sharing is intended.
	Base uint64
	// WorkingSet is the region size in bytes; addresses stay within it.
	WorkingSet uint64
	// Stride is the per-access stride in bytes for PatStream/PatStrided.
	Stride uint32
	// Lines is the number of cache-line requests one execution of the
	// instruction generates (coalescing degree, 1 = fully coalesced
	// wavefront, larger = divergent).
	Lines uint8
}

// Instruction is one static instruction. Instructions are 4 "bytes" wide
// for PC purposes (matching the offset-bit arithmetic in the paper's
// PC-table tuning, Figure 11b).
type Instruction struct {
	Kind Kind
	// Latency is SIMD occupancy in CU cycles for compute kinds.
	Latency uint8
	// Imm is the waitcnt threshold for WaitCnt, or the branch target
	// (instruction index) for Branch.
	Imm int32
	// Trip is the branch trip count (total body executions, >= 1).
	Trip int32
	// TripVar is the maximum ± per-wavefront variation applied to Trip
	// at wavefront start (models divergent loop bounds).
	TripVar int32
	// BranchSlot is the dense index of this Branch among the program's
	// branches; the simulator keeps one trip counter per slot per
	// wavefront. Assigned by the Builder; -1 for non-branches.
	BranchSlot int32
	// Pattern describes the address stream for memory kinds.
	Pattern AccessPattern
}

// InstrBytes is the architectural size of one instruction, used to convert
// instruction indices into PC byte addresses for the predictor table.
const InstrBytes = 4

// Program is a straight-line instruction sequence with counted backward
// branches. The zero value is an empty program.
type Program struct {
	// Name identifies the kernel for traces and reports.
	Name string
	// Code is the instruction sequence. The last instruction must be
	// EndPgm for a valid program.
	Code []Instruction
	// BranchSlots is the number of Branch instructions (trip counters a
	// wavefront must carry).
	BranchSlots int
	// Base is the byte address of Code[0]; successive kernels of an app
	// get disjoint bases so PC-table entries do not alias across
	// kernels.
	Base uint64
}

// PC returns the byte address of the instruction at index i.
func (p *Program) PC(i int32) uint64 {
	return p.Base + uint64(i)*InstrBytes
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Code) }

// Validate checks structural invariants: non-empty, EndPgm-terminated,
// branch targets in range and backward, memory instructions carrying a
// pattern, and consistent branch slot numbering.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	if p.Code[len(p.Code)-1].Kind != EndPgm {
		return fmt.Errorf("isa: program %q does not end with s_endpgm", p.Name)
	}
	slots := 0
	for i, in := range p.Code {
		switch in.Kind {
		case Branch:
			if in.Imm < 0 || int(in.Imm) >= i {
				return fmt.Errorf("isa: program %q: branch at %d has non-backward target %d", p.Name, i, in.Imm)
			}
			if in.Trip < 1 {
				return fmt.Errorf("isa: program %q: branch at %d has trip %d < 1", p.Name, i, in.Trip)
			}
			if in.TripVar < 0 || in.TripVar >= in.Trip {
				return fmt.Errorf("isa: program %q: branch at %d has trip variation %d out of [0,%d)", p.Name, i, in.TripVar, in.Trip)
			}
			if int(in.BranchSlot) != slots {
				return fmt.Errorf("isa: program %q: branch at %d has slot %d, want %d", p.Name, i, in.BranchSlot, slots)
			}
			slots++
		case VLoad, VStore:
			if in.Pattern.Kind == PatNone {
				return fmt.Errorf("isa: program %q: memory op at %d has no access pattern", p.Name, i)
			}
			if in.Pattern.WorkingSet == 0 {
				return fmt.Errorf("isa: program %q: memory op at %d has zero working set", p.Name, i)
			}
			if in.Pattern.Lines == 0 {
				return fmt.Errorf("isa: program %q: memory op at %d generates zero lines", p.Name, i)
			}
		case WaitCnt:
			if in.Imm < 0 {
				return fmt.Errorf("isa: program %q: waitcnt at %d has negative threshold", p.Name, i)
			}
		case EndPgm:
			if i != len(p.Code)-1 {
				return fmt.Errorf("isa: program %q: s_endpgm at %d before program end", p.Name, i)
			}
		case VALU, SALU, LDS, Barrier:
			// No structural constraints.
		default:
			// An out-of-range kind would otherwise surface as a runtime
			// dispatch failure deep inside the simulator; reject it here
			// so sim.New refuses the kernel up front.
			return fmt.Errorf("isa: program %q: unknown instruction kind %d at %d", p.Name, uint8(in.Kind), i)
		}
	}
	if slots != p.BranchSlots {
		return fmt.Errorf("isa: program %q: found %d branches, header says %d", p.Name, slots, p.BranchSlots)
	}
	// Barriers inside loops with per-wave trip variation deadlock: waves
	// exit the loop on different iterations, so the workgroup can never
	// fully arrive. Reject such programs statically.
	for i, in := range p.Code {
		if in.Kind == Branch && in.TripVar > 0 {
			for j := int(in.Imm); j <= i; j++ {
				if p.Code[j].Kind == Barrier {
					return fmt.Errorf("isa: program %q: barrier at %d inside variable-trip loop ending at %d", p.Name, j, i)
				}
			}
		}
	}
	return nil
}

// Stats summarizes the static instruction mix of a program.
type Stats struct {
	Total      int
	Compute    int
	Loads      int
	Stores     int
	WaitCnts   int
	Barriers   int
	Branches   int
	StaticPCs  int // distinct PC addresses (== Total)
	LoopDepth  int // maximum static loop nesting
	BodyInstrs int // instructions inside at least one loop
}

// Stats computes static statistics for the program.
func (p *Program) Stats() Stats {
	var s Stats
	s.Total = len(p.Code)
	s.StaticPCs = len(p.Code)
	depth := make([]int, len(p.Code))
	for i, in := range p.Code {
		switch {
		case in.Kind.IsCompute():
			s.Compute++
		case in.Kind == VLoad:
			s.Loads++
		case in.Kind == VStore:
			s.Stores++
		case in.Kind == WaitCnt:
			s.WaitCnts++
		case in.Kind == Barrier:
			s.Barriers++
		case in.Kind == Branch:
			s.Branches++
			for j := int(in.Imm); j <= i; j++ {
				depth[j]++
			}
		}
	}
	for _, d := range depth {
		if d > s.LoopDepth {
			s.LoopDepth = d
		}
		if d > 0 {
			s.BodyInstrs++
		}
	}
	return s
}
