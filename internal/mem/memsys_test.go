package mem

import (
	"testing"

	"pcstall/internal/clock"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.L2Banks = 4
	cfg.L2Sets = 16
	cfg.L2Ways = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.LineBytes = 48
	if bad.Validate() == nil {
		t.Error("non-power-of-two line accepted")
	}
	bad = DefaultConfig()
	bad.DRAMWidth = 0
	if bad.Validate() == nil {
		t.Error("zero DRAM width accepted")
	}
	bad = DefaultConfig()
	bad.L1MSHRs = 0
	if bad.Validate() == nil {
		t.Error("zero MSHRs accepted")
	}
}

func TestBankMapping(t *testing.T) {
	m := NewMemSys(testConfig())
	// Consecutive lines stripe across banks.
	seen := map[int]bool{}
	for i := uint64(0); i < 4; i++ {
		seen[m.BankOf(i*64)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 consecutive lines hit %d banks, want 4", len(seen))
	}
	// Same line always maps to the same bank.
	if m.BankOf(0x1000) != m.BankOf(0x1004) {
		t.Fatal("same line mapped to two banks")
	}
}

func TestMissGoesToDRAMThenHits(t *testing.T) {
	cfg := testConfig()
	m := NewMemSys(cfg)
	period := cfg.UncoreFreq.PeriodPs()
	req := Request{Addr: 0x4000, CU: 0, WF: 1, Issue: 0}

	m.Submit(req)
	now := clock.Time(0)
	var done []Request
	for cycle := 0; len(done) == 0 && cycle < 10000; cycle++ {
		now = m.NextTickAfter(now)
		m.Tick(now)
		done = m.PopDone(now+clock.Time(cfg.DRAMLat+cfg.L2Latency+2)*period, done)
	}
	if len(done) != 1 {
		t.Fatalf("first access returned %d responses", len(done))
	}
	if m.Stats().L2Misses != 1 || m.Stats().DRAMReqs != 1 {
		t.Fatalf("stats %+v, want one L2 miss and one DRAM access", m.Stats())
	}

	// Second access to the same line: L2 hit, no new DRAM traffic.
	m.Submit(req)
	now = m.NextTickAfter(now)
	m.Tick(now)
	if m.Stats().L2Hits != 1 || m.Stats().DRAMReqs != 1 {
		t.Fatalf("stats %+v, want an L2 hit and still one DRAM access", m.Stats())
	}
}

func TestL2HitFasterThanMiss(t *testing.T) {
	cfg := testConfig()
	m := NewMemSys(cfg)
	lat := func(addr uint64) clock.Time {
		m.Submit(Request{Addr: addr, Issue: 0})
		now := clock.Time(0)
		for i := 0; i < 10000; i++ {
			now = m.NextTickAfter(now)
			m.Tick(now)
			if at, ok := m.NextDone(); ok {
				var buf []Request
				buf = m.PopDone(at, buf)
				if len(buf) > 0 {
					return at
				}
			}
		}
		t.Fatal("no response")
		return 0
	}
	missLat := lat(0x8000)
	hitLat := lat(0x8000) // now resident in L2
	if hitLat >= missLat {
		t.Fatalf("L2 hit latency %d >= miss latency %d", hitLat, missLat)
	}
}

func TestDRAMBandwidthBound(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMWidth = 2
	m := NewMemSys(cfg)
	period := cfg.UncoreFreq.PeriodPs()
	// 32 distinct lines, all misses, all to different banks.
	const n = 32
	for i := uint64(0); i < n; i++ {
		m.Submit(Request{Addr: i * 64, Issue: 0})
	}
	now := clock.Time(0)
	var done []Request
	for len(done) < n {
		now = m.NextTickAfter(now)
		m.Tick(now)
		done = m.PopDone(now, done)
		if now > clock.Time(100000)*period {
			t.Fatalf("only %d of %d responses after many cycles", len(done), n)
		}
	}
	// The last response can't be earlier than DRAM latency plus the
	// serialization of n/width requests.
	minCycles := clock.Time(cfg.DRAMLat + n/cfg.DRAMWidth - 1)
	if now < minCycles*period {
		t.Fatalf("completed at %d ps, before bandwidth-limited minimum %d ps", now, minCycles*period)
	}
}

func TestCompletionOrderDeterministic(t *testing.T) {
	run := func() []uint64 {
		m := NewMemSys(testConfig())
		for i := uint64(0); i < 16; i++ {
			m.Submit(Request{Addr: i * 64, Issue: 0})
		}
		now := clock.Time(0)
		var got []uint64
		var buf []Request
		for len(got) < 16 {
			now = m.NextTickAfter(now)
			m.Tick(now)
			buf = m.PopDone(now, buf[:0])
			for _, r := range buf {
				got = append(got, r.Addr)
			}
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion order diverged at %d", i)
		}
	}
}

func TestScheduleLocalMarksL1Hit(t *testing.T) {
	m := NewMemSys(testConfig())
	m.ScheduleLocal(Request{Addr: 0x40, CU: 2}, 500)
	var buf []Request
	buf = m.PopDone(500, buf)
	if len(buf) != 1 || !buf[0].L1Hit {
		t.Fatalf("ScheduleLocal response missing or unmarked: %+v", buf)
	}
}

func TestQueueDepth(t *testing.T) {
	m := NewMemSys(testConfig())
	if m.QueueDepth() != 0 {
		t.Fatal("fresh memsys reports pending work")
	}
	m.Submit(Request{Addr: 0x40})
	if m.QueueDepth() != 1 {
		t.Fatal("submitted request not visible")
	}
}

func TestMemSysCloneIndependence(t *testing.T) {
	m := NewMemSys(testConfig())
	m.Submit(Request{Addr: 0x40})
	cp := m.Clone()
	now := m.NextTickAfter(0)
	cp.Tick(now) // drain the clone only
	if m.QueueDepth() != 1 {
		t.Fatal("clone tick drained original queue")
	}
	cp.Submit(Request{Addr: 0x80})
	if m.QueueDepth() != 1 {
		t.Fatal("clone submit leaked into original")
	}
}

func TestQueueFIFO(t *testing.T) {
	var q queue
	for i := 0; i < 200; i++ {
		q.push(Request{Addr: uint64(i)})
	}
	for i := 0; i < 150; i++ {
		if got := q.pop(); got.Addr != uint64(i) {
			t.Fatalf("pop %d returned %d", i, got.Addr)
		}
	}
	// Interleave to exercise compaction.
	for i := 200; i < 400; i++ {
		q.push(Request{Addr: uint64(i)})
		if got := q.pop(); got.Addr != uint64(i-50) {
			t.Fatalf("interleaved pop got %d, want %d", got.Addr, i-50)
		}
	}
	if q.len() != 50 {
		t.Fatalf("queue length %d, want 50", q.len())
	}
}

func TestComplHeapOrdering(t *testing.T) {
	var h complHeap
	times := []clock.Time{500, 100, 300, 100, 700, 200}
	for i, at := range times {
		h.push(completion{At: at, Seq: int64(i)})
	}
	var prev completion
	for i := 0; len(h) > 0; i++ {
		c := h.pop()
		if i > 0 {
			if c.At < prev.At || (c.At == prev.At && c.Seq < prev.Seq) {
				t.Fatalf("heap order violated: %+v after %+v", c, prev)
			}
		}
		prev = c
	}
}
