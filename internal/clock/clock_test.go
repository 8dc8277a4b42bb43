package clock

import (
	"testing"
	"testing/quick"
)

func TestGridStates(t *testing.T) {
	g := DefaultGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	states := g.States()
	if len(states) != 10 || g.Count() != 10 {
		t.Fatalf("default grid has %d states, want 10", len(states))
	}
	if states[0] != 1300 || states[9] != 2200 {
		t.Fatalf("grid endpoints %v..%v", states[0], states[9])
	}
	for i, f := range states {
		if g.Index(f) != i {
			t.Fatalf("Index(%v) = %d, want %d", f, g.Index(f), i)
		}
		if g.State(i) != f {
			t.Fatalf("State(%d) = %v, want %v", i, g.State(i), f)
		}
	}
}

func TestGridIndexOffGrid(t *testing.T) {
	g := DefaultGrid()
	for _, f := range []Freq{1250, 1350, 2300, 0} {
		if g.Index(f) != -1 {
			t.Errorf("Index(%v) should be -1", f)
		}
	}
}

func TestGridClamp(t *testing.T) {
	g := DefaultGrid()
	cases := []struct{ in, want Freq }{
		{1000, 1300}, {1300, 1300}, {1349, 1300}, {1350, 1400},
		{1751, 1800}, {2200, 2200}, {9999, 2200},
	}
	for _, c := range cases {
		if got := g.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%d) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGridMid(t *testing.T) {
	if got := DefaultGrid().Mid(); got != 1700 {
		t.Fatalf("default grid mid = %v, want 1.7GHz", got)
	}
}

func TestGridValidateRejects(t *testing.T) {
	bad := []Grid{
		{Min: 0, Max: 100, Step: 10},
		{Min: 200, Max: 100, Step: 10},
		{Min: 100, Max: 200, Step: 0},
		{Min: 100, Max: 205, Step: 10}, // range not multiple of step
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("bad grid %d accepted", i)
		}
	}
}

func TestTransitionLatencyAnchors(t *testing.T) {
	// The paper's anchors: 4ns at 1µs epochs, 40ns at 10µs, 400ns at
	// 100µs (§5).
	cases := []struct {
		epoch Time
		want  Time
	}{
		{1 * Microsecond, 4 * Nanosecond},
		{10 * Microsecond, 40 * Nanosecond},
		{100 * Microsecond, 400 * Nanosecond},
		{Millisecond, 400 * Nanosecond}, // capped
		{100, 1 * Nanosecond},           // floored
	}
	for _, c := range cases {
		if got := TransitionLatency(c.epoch); got != c.want {
			t.Errorf("TransitionLatency(%d) = %d, want %d", c.epoch, got, c.want)
		}
	}
}

// TestDomainTicksMonotoneAndDriftFree checks the tick arithmetic: ticks
// strictly increase and cycle k lands exactly at anchor + k*1e6/f without
// accumulated drift.
func TestDomainTicksMonotoneAndDriftFree(t *testing.T) {
	err := quick.Check(func(seed uint16) bool {
		g := DefaultGrid()
		f := g.State(int(seed) % g.Count())
		d := NewDomain(0, f)
		tt := Time(0)
		for k := int64(1); k <= 3000; k++ {
			next := d.NextTickAfter(tt)
			if next <= tt {
				return false
			}
			tt = next
		}
		// After 3000 ticks, time must equal 3000 cycles exactly.
		want := d.TickAt(3000)
		return tt == want
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDomainCycleRate(t *testing.T) {
	// A domain at f MHz must tick exactly f times per microsecond.
	for _, f := range DefaultGrid().States() {
		d := NewDomain(0, f)
		n := 0
		tt := Time(0)
		for {
			next := d.NextTickAfter(tt)
			if next > Microsecond {
				break
			}
			n++
			tt = next
		}
		if int64(n) != int64(f) {
			t.Errorf("%v ticked %d times per us, want %d", f, n, f)
		}
	}
}

func TestDomainSetFreq(t *testing.T) {
	d := NewDomain(3, 1700)
	d.SetFreq(1700, 1000, 50) // same frequency: free
	if d.Transitions != 0 || d.StallUntil != 0 {
		t.Fatal("same-frequency SetFreq should be free")
	}
	d.SetFreq(2200, 1000, 50)
	if d.Transitions != 1 {
		t.Fatalf("transitions = %d", d.Transitions)
	}
	if d.StallUntil != 1050 || d.Anchor != 1050 {
		t.Fatalf("stall/anchor = %d/%d, want 1050", d.StallUntil, d.Anchor)
	}
	// No tick may land during the transition stall.
	if next := d.NextTickAfter(1000); next <= 1050 {
		t.Fatalf("tick %d during transition stall", next)
	}
}

func TestMap(t *testing.T) {
	m := Map{NumCUs: 16, CUsPerDomain: 4}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumDomains() != 4 {
		t.Fatalf("NumDomains = %d", m.NumDomains())
	}
	for cu := 0; cu < 16; cu++ {
		d := m.DomainOf(cu)
		lo, hi := m.CUs(d)
		if cu < lo || cu >= hi {
			t.Fatalf("CU %d not within its domain range [%d,%d)", cu, lo, hi)
		}
	}
	if (Map{NumCUs: 10, CUsPerDomain: 4}).Validate() == nil {
		t.Error("non-dividing domain map accepted")
	}
	if (Map{NumCUs: 0, CUsPerDomain: 1}).Validate() == nil {
		t.Error("empty map accepted")
	}
}

func TestFreqFormatting(t *testing.T) {
	if Freq(1700).String() != "1.7GHz" {
		t.Fatalf("got %q", Freq(1700).String())
	}
	if Freq(1700).GHz() != 1.7 {
		t.Fatalf("GHz() = %g", Freq(1700).GHz())
	}
	if Freq(2000).PeriodPs() != 500 {
		t.Fatalf("2GHz period = %d ps", Freq(2000).PeriodPs())
	}
}

// TestDivisorMatchesDivision: the multiply-by-reciprocal divide must equal
// hardware division for every divisor the simulator uses (grid
// frequencies and their floor periods), for edge divisors, and for
// numerators on both sides of the exactness bound.
func TestDivisorMatchesDivision(t *testing.T) {
	divisors := []Time{1, 2, 3, 7, 454, 625, 769, 1<<20 + 1, 1<<31 - 1}
	for _, f := range DefaultGrid().States() {
		divisors = append(divisors, Time(f), Freq(f).PeriodPs())
	}
	rng := uint64(0x9E3779B97F4A7C15)
	for _, d := range divisors {
		r := NewDivisor(d)
		nums := []Time{0, 1, d - 1, d, d + 1, 2*d - 1, 1 << 52, 1<<62 + 12345}
		if r.max < 1<<62 {
			nums = append(nums, Time(r.max), Time(r.max)+1)
		}
		for i := 0; i < 2000; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			nums = append(nums, Time(rng>>(11+i%40)))
		}
		for _, n := range nums {
			q, rem := r.Div(n)
			if q != n/d || rem != n%d {
				t.Fatalf("%d / %d: got %d rem %d, want %d rem %d", n, d, q, rem, n/d, n%d)
			}
		}
	}
}

// TestNextTickAfterMatchesDefinition drives NextTickAfter with queries in
// the orders the simulator issues them — repeats, the tick just returned,
// a period minus one past it, about a period past it, arbitrary jumps — across frequency changes
// and transition stalls, against the definition: the first tick
// Anchor + k*1e6/F strictly after max(t, StallUntil), or the anchor.
func TestNextTickAfterMatchesDefinition(t *testing.T) {
	ref := func(d *Domain, t Time) Time {
		if t < d.StallUntil {
			t = d.StallUntil
		}
		if t < d.Anchor {
			return d.Anchor
		}
		k := (t - d.Anchor) * Time(d.Freq) / 1_000_000
		for d.TickAt(k) <= t {
			k++
		}
		return d.TickAt(k)
	}
	err := quick.Check(func(seed uint32, steps []uint16) bool {
		g := DefaultGrid()
		d := NewDomain(0, g.State(int(seed)%g.Count()))
		now := Time(0)
		for i, s := range steps {
			var q Time
			switch s % 6 {
			case 0:
				q = now
			case 1:
				q = now + d.PeriodPs() - 1
			case 5:
				q = now + d.PeriodPs() + Time(s%3)
			case 2:
				q = now + Time(s)
			case 3:
				q = now + Time(s)*97
			case 4:
				if i%7 == 0 {
					d.SetFreq(g.State(int(s)%g.Count()), now, TransitionLatency(Microsecond))
				}
				q = now
			}
			got, want := d.NextTickAfter(q), ref(&d, q)
			if got != want {
				t.Logf("freq %v anchor %d stall %d: NextTickAfter(%d) = %d, want %d", d.Freq, d.Anchor, d.StallUntil, q, got, want)
				return false
			}
			now = got
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
