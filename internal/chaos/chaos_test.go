package chaos

import (
	"reflect"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/sim"
)

func sample() *sim.EpochSample {
	return &sim.EpochSample{
		Start: 0, End: clock.Microsecond,
		Freqs: []clock.Freq{1700, 1300},
		CUs: []sim.CUEpoch{
			{CU: 0, C: sim.CUCounters{Committed: 1000, MemBlockedPs: 400000, L1Hits: 50},
				WFs: []sim.WFRecord{{Slot: 0, GlobalWave: 0, EndPC: 0x1000,
					ResidentPs: 1000000, C: sim.WFCounters{Committed: 500, StallPs: 200000}}}},
			{CU: 1, C: sim.CUCounters{Committed: 2000, OccupancyPs: 700000},
				WFs: []sim.WFRecord{{Slot: 3, GlobalWave: 7, EndPC: 0x2000,
					ResidentPs: 1000000, C: sim.WFCounters{Committed: 900}}}},
		},
	}
}

func TestDisabledEngineIsPassthrough(t *testing.T) {
	e := NewEngine(Config{Seed: 99})
	s := sample()
	before := *s
	got := e.PerturbEpoch(s)
	if got != s {
		t.Fatal("disabled engine did not return the input sample")
	}
	if !reflect.DeepEqual(before, *s) {
		t.Fatal("disabled engine mutated the sample")
	}
	pcs := []sim.WavePC{{GlobalWave: 1, PC: 0x1234}}
	if out := e.CorruptPCs(pcs); out[0].PC != 0x1234 {
		t.Fatal("disabled engine corrupted a PC")
	}
	if fail, extra := e.Transition(clock.Microsecond); fail || extra != 0 {
		t.Fatal("disabled engine perturbed a transition")
	}
	if e.Stats() != (Stats{}) {
		t.Fatalf("disabled engine reported stats %+v", e.Stats())
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	s := sample()
	if e.PerturbEpoch(s) != s {
		t.Fatal("nil engine did not pass the sample through")
	}
	if fail, extra := e.Transition(clock.Microsecond); fail || extra != 0 {
		t.Fatal("nil engine perturbed a transition")
	}
	e.CorruptPCs(nil)
	if e.Stats() != (Stats{}) || e.Config() != (Config{}) {
		t.Fatal("nil engine reported non-zero state")
	}
}

func TestPerturbEpochDeterministicAndNonMutating(t *testing.T) {
	cfg := Level(0.3, 42)
	run := func() (*sim.EpochSample, Stats) {
		e := NewEngine(cfg)
		var last *sim.EpochSample
		for i := 0; i < 10; i++ {
			last = e.PerturbEpoch(sample())
		}
		cp := &sim.EpochSample{}
		cp.Start, cp.End, cp.Finished = last.Start, last.End, last.Finished
		cp.Freqs = append([]clock.Freq(nil), last.Freqs...)
		for _, cu := range last.CUs {
			cu.WFs = append([]sim.WFRecord(nil), cu.WFs...)
			cp.CUs = append(cp.CUs, cu)
		}
		return cp, e.Stats()
	}
	a, sa := run()
	b, sb := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different perturbed samples:\n%+v\n%+v", a, b)
	}
	if sa != sb {
		t.Fatalf("same seed produced different stats: %+v vs %+v", sa, sb)
	}
	if sa.NoisyCounters == 0 {
		t.Fatal("level 0.3 over 10 epochs injected no counter noise")
	}

	// The real sample must never be mutated.
	e := NewEngine(cfg)
	s := sample()
	want := sample()
	e.PerturbEpoch(s)
	if !reflect.DeepEqual(s, want) {
		t.Fatal("PerturbEpoch mutated the real sample")
	}
}

func TestStaleServesPreviousRealSample(t *testing.T) {
	e := NewEngine(Config{Seed: 1, StaleProb: 1})
	first := sample()
	e.PerturbEpoch(first) // no prev yet: epoch passes through (counted stale)
	second := sample()
	second.CUs[0].C.Committed = 12345
	got := e.PerturbEpoch(second)
	if got.CUs[0].C.Committed != first.CUs[0].C.Committed {
		t.Fatalf("stale CU sample has Committed=%d, want previous real %d",
			got.CUs[0].C.Committed, first.CUs[0].C.Committed)
	}
	if e.Stats().StaleCUs == 0 {
		t.Fatal("no stale CUs counted")
	}
}

func TestDropZeroesCU(t *testing.T) {
	e := NewEngine(Config{Seed: 1, DropProb: 1})
	got := e.PerturbEpoch(sample())
	for i := range got.CUs {
		if got.CUs[i].C != (sim.CUCounters{}) || len(got.CUs[i].WFs) != 0 {
			t.Fatalf("dropped CU %d still carries telemetry: %+v", i, got.CUs[i])
		}
	}
	if e.Stats().DroppedCUs != 2 {
		t.Fatalf("DroppedCUs = %d, want 2", e.Stats().DroppedCUs)
	}
}

func TestTransitionFaults(t *testing.T) {
	e := NewEngine(Config{Seed: 5, TransFailProb: 1, TransJitter: 0.5})
	fail, extra := e.Transition(clock.Microsecond)
	if !fail {
		t.Fatal("tfail=1 transition did not fail")
	}
	if extra < 0 || extra >= clock.Microsecond/2 {
		t.Fatalf("jitter %d outside [0, nominal/2)", extra)
	}
	if e.Stats().FailedTransitions != 1 {
		t.Fatalf("FailedTransitions = %d", e.Stats().FailedTransitions)
	}
}

func TestCorruptPCsStickyPerPC(t *testing.T) {
	e := NewEngine(Config{Seed: 3, PCFlipProb: 1})
	a := e.CorruptPCs([]sim.WavePC{{GlobalWave: 4, PC: 0x1000}})
	if a[0].PC == 0x1000 {
		t.Fatal("pcflip=1 did not corrupt the PC")
	}
	corrupted := a[0].PC
	// Same wave still at the same real PC: corruption must latch.
	b := e.CorruptPCs([]sim.WavePC{{GlobalWave: 4, PC: 0x1000}})
	if b[0].PC != corrupted {
		t.Fatalf("sticky corruption changed: %#x then %#x", corrupted, b[0].PC)
	}
	// Flipped bit stays in the PC-table offset range [2,9].
	diff := corrupted ^ 0x1000
	if diff&(diff-1) != 0 || diff < 1<<2 || diff > 1<<9 {
		t.Fatalf("corruption %#x is not a single bit in [2,9]", diff)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"noise=0.2",
		"noise=0.2,drop=0.05,stale=0.1,tfail=0.1,jitter=0.5,pcflip=0.01,seed=9",
		"seed=7,level=0.4",
	}
	for _, spec := range specs {
		c, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		c2, err := Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)): %v", spec, err)
		}
		if c != c2 {
			t.Fatalf("round trip of %q: %+v != %+v", spec, c, c2)
		}
	}
	if c, _ := Parse("seed=7,level=0.4"); c.Seed != 7 || c.CounterNoise != 0.4 {
		t.Fatalf("level shorthand wrong: %+v", c)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"noise", "noise=x", "bogus=1", "drop=1.5", "drop=-0.1",
		"seed=abc", "noise=-1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{DropProb: 1.5}, {StaleProb: -0.1}, {TransFailProb: 2},
		{CounterNoise: -1}, {TransJitter: -0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestLevelZeroDisabled(t *testing.T) {
	c := Level(0, 9)
	if c.Enabled() {
		t.Fatal("Level(0) is enabled")
	}
	if c.String() != "" {
		t.Fatalf("Level(0).String() = %q", c.String())
	}
}

// FuzzChaosSpec: canonical specs are part of cache keys, so for any spec
// Parse accepts, String must reparse to the same String — and, when the
// config injects anything, to an equal Config.
func FuzzChaosSpec(f *testing.F) {
	for _, spec := range []string{
		"", "noise=0.2", "seed=7,level=0.4", "level=0.2",
		"noise=0.2,drop=0.05,stale=0.1,tfail=0.1,jitter=0.5,pcflip=0.01,seed=9",
		" jitter = 1e-300 , seed=18446744073709551615", "drop=1,pcflip=-0",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			return
		}
		canon := c.String()
		c2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its String %q rejected: %v", spec, canon, err)
		}
		if c2.String() != canon {
			t.Fatalf("String of %q is %q, which reparses to %q", spec, canon, c2.String())
		}
		if c.Enabled() && c2 != c {
			t.Fatalf("%q: %+v reparses from %q to %+v", spec, c, canon, c2)
		}
	})
}
