// Package clock models frequencies, voltage/frequency domains, and DVFS
// transitions.
//
// Simulated time is int64 picoseconds. A domain at f MHz ticks at
//
//	anchor + k*1e6/f   (integer division, k = cycles since anchor)
//
// computed fresh for each k, so tick times are exact rational floors with
// no accumulated drift, and two runs of the same schedule produce
// identical tick sequences — a requirement for the snapshot/rollback
// oracle in internal/oracle.
package clock

import (
	"fmt"
	"math/bits"
)

// Time is simulated time in picoseconds.
type Time = int64

// Min returns the earlier of two times whose difference fits in a Time
// (any two non-negative times). It selects with the difference's sign
// instead of a branch: the simulator's event loop compares times whose
// order changes unpredictably, where a mispredicted branch costs more
// than the arithmetic.
func Min(a, b Time) Time {
	d := b - a
	return a + d&(d>>63)
}

// Max returns the later of two times, under Min's condition.
func Max(a, b Time) Time {
	d := b - a
	return b - d&(d>>63)
}

// Common durations in picoseconds.
const (
	Nanosecond  Time = 1_000
	Microsecond Time = 1_000_000
	Millisecond Time = 1_000_000_000
)

// Freq is a clock frequency in MHz.
type Freq int32

// GHz returns the frequency in GHz for display.
func (f Freq) GHz() float64 { return float64(f) / 1000 }

// String formats the frequency as "1.7GHz".
func (f Freq) String() string { return fmt.Sprintf("%.1fGHz", f.GHz()) }

// PeriodPs returns the (floor) clock period in picoseconds.
func (f Freq) PeriodPs() Time { return 1_000_000 / Time(f) }

// Grid is the discrete set of DVFS-reachable frequencies. The paper's
// configuration is 1.3-2.2 GHz in 100 MHz steps (10 V/f states), with the
// range itself set by a higher-level power manager (§5.4).
type Grid struct {
	Min, Max, Step Freq
}

// DefaultGrid is the paper's 10-state grid.
func DefaultGrid() Grid { return Grid{Min: 1300, Max: 2200, Step: 100} }

// Validate checks that the grid is well-formed.
func (g Grid) Validate() error {
	if g.Min <= 0 || g.Max < g.Min || g.Step <= 0 {
		return fmt.Errorf("clock: invalid grid %+v", g)
	}
	if (g.Max-g.Min)%g.Step != 0 {
		return fmt.Errorf("clock: grid %+v: range not a multiple of step", g)
	}
	return nil
}

// Count returns the number of V/f states.
func (g Grid) Count() int { return int((g.Max-g.Min)/g.Step) + 1 }

// States returns all frequencies, ascending.
func (g Grid) States() []Freq {
	out := make([]Freq, 0, g.Count())
	for f := g.Min; f <= g.Max; f += g.Step {
		out = append(out, f)
	}
	return out
}

// State returns the i-th frequency (0 = Min).
func (g Grid) State(i int) Freq { return g.Min + Freq(i)*g.Step }

// Index returns the state index of f, or -1 if f is not on the grid.
func (g Grid) Index(f Freq) int {
	if f < g.Min || f > g.Max || (f-g.Min)%g.Step != 0 {
		return -1
	}
	return int((f - g.Min) / g.Step)
}

// Clamp snaps f onto the nearest grid state.
func (g Grid) Clamp(f Freq) Freq {
	if f < g.Min {
		return g.Min
	}
	if f > g.Max {
		return g.Max
	}
	r := (f - g.Min) % g.Step
	f -= r
	if r*2 >= g.Step {
		f += g.Step
	}
	return f
}

// Mid returns the grid's middle state (the paper's 1.7 GHz static
// baseline on the default grid, rounding down for even counts).
func (g Grid) Mid() Freq { return g.State((g.Count() - 1) / 2) }

// TransitionLatency returns the V/f transition latency the paper assumes
// for a given epoch duration (§5): 4ns at 1µs epochs, 40ns at 10µs, 200ns
// at 50µs, 400ns at 100µs; interpolated as 0.4% of the epoch in between.
func TransitionLatency(epoch Time) Time {
	lat := epoch / 250 // 0.4%
	if lat < 1*Nanosecond {
		lat = 1 * Nanosecond
	}
	if lat > 400*Nanosecond {
		lat = 400 * Nanosecond
	}
	return lat
}

// Domain is one voltage/frequency island: a group of CUs (plus their L1s)
// sharing a frequency. Build one with NewDomain. Domain is plain data;
// copying the struct snapshots it exactly.
type Domain struct {
	ID   int32
	Freq Freq
	// Anchor is the time the current frequency took effect; cycle k of
	// this regime ticks at Anchor + k*1e6/Freq.
	Anchor Time
	// StallUntil is the end of the in-progress DVFS transition; the
	// domain must not execute before it.
	StallUntil Time
	// Transitions counts frequency changes (for transition energy).
	Transitions int64
	// FailedTransitions counts requested changes the regulator aborted
	// (fault injection): the domain paid the settle stall but kept its
	// old frequency.
	FailedTransitions int64
	// q and r cache 1e6 divmod Freq (the floor period and its remainder);
	// memoQ/memoA/memoRem cache the last NextTickAfter query, its answer,
	// and k*1e6 mod Freq at the answer, letting the hot sequential case —
	// asking for the tick after the one just returned — advance the grid
	// cursor with adds instead of divisions. byFreq and byPeriod divide
	// by Freq and by q without a hardware divide. reclock rebuilds them
	// all whenever the frequency regime changes.
	q, r                  Time
	memoQ, memoA, memoRem Time
	byFreq, byPeriod      Divisor
}

// Divisor divides non-negative numerators by a fixed divisor with one
// multiply instead of a hardware divide. With inv = ceil(2^64/d) =
// (2^64+e)/d, 0 <= e < d, the high word of n*inv is n/d + (r +
// n*e/2^64)/d for n = (n/d)*d + r, whose floor is n/d whenever n*e < 2^64
// — guaranteed for n <= max = (2^64-1)/d. For the simulator's divisors
// (clock frequencies and periods, at most a few thousand) max exceeds
// 2^52, beyond any simulated numerator; larger numerators, and d == 1,
// fall back to division.
type Divisor struct {
	d, inv, max uint64
}

// NewDivisor returns a Divisor for d >= 1.
func NewDivisor(d Time) Divisor {
	r := Divisor{d: uint64(d)}
	if d >= 2 {
		r.inv = ^uint64(0)/r.d + 1 // ceil(2^64/d)
		r.max = ^uint64(0) / r.d
	}
	return r
}

// Div returns n/d and n%d for n >= 0.
func (r Divisor) Div(n Time) (quo, rem Time) {
	if uint64(n) <= r.max {
		hi, _ := bits.Mul64(uint64(n), r.inv)
		quo = Time(hi)
		return quo, n - quo*Time(r.d)
	}
	return n / Time(r.d), n % Time(r.d)
}

// NewDomain returns a domain running at f from time 0.
func NewDomain(id int32, f Freq) Domain {
	d := Domain{ID: id, Freq: f}
	d.reclock()
	return d
}

// reclock rebuilds the cached divmod and invalidates the grid-cursor memo;
// call after any change to Freq, Anchor, or StallUntil.
func (d *Domain) reclock() {
	d.q = 1_000_000 / Time(d.Freq)
	d.r = 1_000_000 % Time(d.Freq)
	d.memoQ, d.memoA = -1, -1
	d.byFreq = NewDivisor(Time(d.Freq))
	d.byPeriod = NewDivisor(d.q)
}

// TickAt returns the time of cycle k since the anchor.
func (d *Domain) TickAt(k int64) Time {
	return d.Anchor + k*1_000_000/Time(d.Freq)
}

// PeriodPs returns the domain's (floor) clock period in picoseconds.
func (d *Domain) PeriodPs() Time { return d.q }

// PeriodsIn returns span / PeriodPs() for span >= 0: how many whole floor
// periods fit in span.
func (d *Domain) PeriodsIn(span Time) Time {
	n, _ := d.byPeriod.Div(span)
	return n
}

// NextTickAfter returns the earliest domain tick strictly after t (and not
// before the transition stall ends).
func (d *Domain) NextTickAfter(t Time) Time {
	if t < d.StallUntil {
		t = d.StallUntil
	}
	if t < d.Anchor {
		return d.Anchor
	}
	if t == d.memoQ {
		// Same query as last time (CUs sharing the domain tick together).
		return d.memoA
	}
	if t >= d.memoA && d.memoA >= 0 {
		// Asking for a time in [memoA, next tick) — the sequential
		// ticking case: a CU that just ticked at memoA asks for the tick
		// after now or after now+period-1. floor((k+1)*1e6/F) =
		// floor(k*1e6/F) + q + carry, with the carry tracked by the
		// running remainder: no division. The carry depends on the cycle
		// index, so it is computed, not branched on: ge is 1 iff
		// rem >= Freq.
		rem := d.memoRem + d.r - Time(d.Freq)
		ge := rem>>63 + 1
		if a := d.memoA + d.q + ge; t < a {
			d.memoQ, d.memoA, d.memoRem = t, a, rem+Time(d.Freq)&^-ge
			return a
		}
	}
	// Smallest k with Anchor + k*1e6/F > t  =>  k = floor((t-Anchor)*F/1e6) + 1.
	// TickAt(k) is Anchor + k*1e6/F; byFreq yields the quotient and the
	// memo's remainder from one multiply.
	k := (t-d.Anchor)*Time(d.Freq)/1_000_000 + 1
	quo, rem := d.byFreq.Div(k * 1_000_000)
	for d.Anchor+quo <= t { // guard against floor-division edge cases
		k++
		quo, rem = d.byFreq.Div(k * 1_000_000)
	}
	tick := d.Anchor + quo
	d.memoQ, d.memoA, d.memoRem = t, tick, rem
	return tick
}

// SetFreq requests frequency f at time now. If f differs from the current
// frequency the domain stalls for transition and re-anchors its cycle
// grid at the stall end. Setting the same frequency is free.
func (d *Domain) SetFreq(f Freq, now, transition Time) {
	d.SetFreqOutcome(f, now, transition, false)
}

// SetFreqOutcome is SetFreq with an explicit regulator outcome: when fail
// is set the attempted change aborts — the domain still pays the settle
// stall (the regulator ramped and backed off) but keeps its old frequency
// and cycle grid. Used by fault injection; a same-frequency request stays
// free either way.
func (d *Domain) SetFreqOutcome(f Freq, now, transition Time, fail bool) {
	if f == d.Freq {
		return
	}
	if fail {
		d.StallUntil = now + transition
		d.FailedTransitions++
		d.reclock()
		return
	}
	d.Freq = f
	d.Anchor = now + transition
	d.StallUntil = now + transition
	d.Transitions++
	d.reclock()
}

// Map describes how CUs are grouped into V/f domains.
type Map struct {
	NumCUs       int
	CUsPerDomain int
}

// Validate checks the grouping divides the GPU evenly.
func (m Map) Validate() error {
	if m.NumCUs < 1 || m.CUsPerDomain < 1 {
		return fmt.Errorf("clock: invalid domain map %+v", m)
	}
	if m.NumCUs%m.CUsPerDomain != 0 {
		return fmt.Errorf("clock: %d CUs not divisible into domains of %d", m.NumCUs, m.CUsPerDomain)
	}
	return nil
}

// NumDomains returns the number of V/f domains.
func (m Map) NumDomains() int { return m.NumCUs / m.CUsPerDomain }

// DomainOf returns the domain index of a CU.
func (m Map) DomainOf(cu int) int { return cu / m.CUsPerDomain }

// CUs returns the CU index range [lo, hi) of a domain.
func (m Map) CUs(domain int) (lo, hi int) {
	return domain * m.CUsPerDomain, (domain + 1) * m.CUsPerDomain
}
