package mem

import (
	"fmt"
	"math/bits"

	"pcstall/internal/clock"
)

// Request is one cache-line transaction traveling through the hierarchy.
// CU and WF identify the issuing wavefront so the simulator can decrement
// its outstanding counters when the response lands; the remaining fields
// feed the estimation models' counters.
type Request struct {
	Addr  uint64
	CU    int32
	WF    int32
	Store bool
	// Issue is the time the CU issued the request (after L1 miss).
	Issue clock.Time
	// Leading marks a load issued while its CU had no other loads in
	// flight (the Leading Load model's signal).
	Leading bool
	// L1Hit marks a response scheduled by the CU itself for an L1 hit;
	// it bypassed the shared hierarchy.
	L1Hit bool
}

// Config describes the memory hierarchy geometry and timing.
type Config struct {
	LineBytes int

	L1Sets     int
	L1Ways     int
	L1Latency  int // CU cycles from issue to response on an L1 hit
	L1MSHRs    int // max outstanding L1 misses per CU (issue stalls beyond)
	L2Banks    int
	L2Sets     int // per bank
	L2Ways     int
	L2Latency  int // uncore cycles from dequeue to response on an L2 hit
	DRAMLat    int // uncore cycles from DRAM dequeue to response
	DRAMWidth  int // DRAM requests serviced per uncore cycle
	UncoreFreq clock.Freq
}

// DefaultConfig mirrors the paper's platform: 16 L2 banks shared by all
// CUs with the memory subsystem fixed at 1.6 GHz (§5). Capacities are
// Vega-class: 16 KiB L1 per CU, 4 MiB L2 total.
func DefaultConfig() Config {
	return Config{
		LineBytes:  64,
		L1Sets:     64, // 16 KiB: 64 sets * 4 ways * 64 B
		L1Ways:     4,
		L1Latency:  28,
		L1MSHRs:    32,
		L2Banks:    16,
		L2Sets:     256, // 4 MiB: 16 banks * 256 sets * 16 ways * 64 B
		L2Ways:     16,
		L2Latency:  64,
		DRAMLat:    240,
		DRAMWidth:  2,
		UncoreFreq: 1600,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: line size %d not a power of two", c.LineBytes)
	case c.L1Sets < 1 || c.L1Ways < 1 || c.L2Banks < 1 || c.L2Sets < 1 || c.L2Ways < 1:
		return fmt.Errorf("mem: non-positive cache geometry: %+v", c)
	case c.L1Latency < 1 || c.L2Latency < 1 || c.DRAMLat < 1:
		return fmt.Errorf("mem: non-positive latency: %+v", c)
	case c.L1MSHRs < 1:
		return fmt.Errorf("mem: need at least one L1 MSHR")
	case c.DRAMWidth < 1:
		return fmt.Errorf("mem: DRAM width %d < 1", c.DRAMWidth)
	case c.UncoreFreq < 1:
		return fmt.Errorf("mem: uncore frequency %v", c.UncoreFreq)
	}
	return nil
}

// NewL1 builds one CU's L1 cache per the config.
func (c Config) NewL1() Cache { return mustCache(c.L1Sets, c.L1Ways, c.LineBytes) }

// queue is a FIFO of requests with O(1) amortized push/pop.
type queue struct {
	buf  []Request
	head int
}

func (q *queue) push(r Request) { q.buf = append(q.buf, r) }

func (q *queue) len() int { return len(q.buf) - q.head }

func (q *queue) pop() Request {
	r := q.buf[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return r
}

// cloneInto copies q's live requests into dst, reusing dst's buffer
// capacity. Only the live tail matters; dropping the consumed prefix keeps
// clones of long-running queues small.
func (q *queue) cloneInto(dst *queue) {
	dst.buf = append(dst.buf[:0], q.buf[q.head:]...)
	dst.head = 0
}

// completion is a response scheduled to land at time At.
type completion struct {
	At  clock.Time
	Seq int64 // tie-break so completion order is deterministic
	Req Request
}

func lessAtSeq(at1 clock.Time, seq1 int64, at2 clock.Time, seq2 int64) bool {
	if at1 != at2 {
		return at1 < at2
	}
	return seq1 < seq2
}

// ring is a FIFO of completions whose land times are pushed in
// non-decreasing order, so the head is always the earliest. L2-hit and
// DRAM responses each have a fixed latency from a monotonically advancing
// uncore clock, which makes a plain ring an O(1) replacement for a heap.
type ring struct {
	buf  []completion
	head int
}

func (q *ring) push(c completion) {
	if n := len(q.buf); n > q.head && c.At < q.buf[n-1].At {
		panic("mem: completion ring pushed out of order")
	}
	q.buf = append(q.buf, c)
}

func (q *ring) len() int { return len(q.buf) - q.head }

func (q *ring) peek() *completion { return &q.buf[q.head] }

func (q *ring) pop() completion {
	c := q.buf[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return c
}

// cloneInto copies q's live completions into dst, reusing dst's buffer
// capacity. Only the live tail matters; dropping the consumed prefix keeps
// clones of long-running rings small.
func (q *ring) cloneInto(dst *ring) {
	dst.buf = append(dst.buf[:0], q.buf[q.head:]...)
	dst.head = 0
}

// complHeap is a binary min-heap ordered by (At, Seq).
type complHeap []completion

func (h *complHeap) push(c completion) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h)[i].less((*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (c completion) less(o completion) bool {
	if c.At != o.At {
		return c.At < o.At
	}
	return c.Seq < o.Seq
}

func (h *complHeap) pop() completion {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h)[l].less((*h)[small]) {
			small = l
		}
		if r < n && (*h)[r].less((*h)[small]) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// Stats are cumulative traffic counters for the shared hierarchy.
type Stats struct {
	L2Hits    int64
	L2Misses  int64
	DRAMReqs  int64
	Submitted int64
}

// MemSys is the shared portion of the hierarchy: banked L2 plus DRAM,
// clocked at the fixed uncore frequency. Each uncore cycle every bank
// dequeues at most one request and DRAM dequeues at most DRAMWidth.
type MemSys struct {
	Cfg   Config
	banks []queue
	dramQ queue
	l2    []Cache
	// Completions are split by source. L2-hit and DRAM responses land a
	// fixed latency after uncore cycles that only move forward, so each
	// class is FIFO and lives in an O(1) ring. CU-local L1-hit responses
	// (ScheduleLocal) use per-CU clocks whose frequency can change, so
	// only they need a heap. PopDone merges the three by (At, Seq).
	l2Done   ring
	dramDone ring
	local    complHeap
	seq      int64
	cycle    int64 // uncore cycles consumed (cycle k happens at k*period)
	period   clock.Time
	bankOcc  int // total requests sitting in bank queues
	// bankBits has bit b set while bank b's queue is non-empty, letting
	// Tick visit only occupied banks. Maintained only when the bank count
	// fits in a word (≤ 64); with more banks it stays 0 and Tick scans.
	bankBits uint64
	// lineShift and bankMask implement BankOf with shift/mask when line
	// size and bank count are powers of two (bankMask is 0 otherwise and
	// BankOf falls back to division).
	lineShift uint32
	bankMask  uint64
	stats     Stats
}

// NewMemSys builds the shared hierarchy.
func NewMemSys(cfg Config) *MemSys {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &MemSys{
		Cfg:    cfg,
		banks:  make([]queue, cfg.L2Banks),
		l2:     make([]Cache, cfg.L2Banks),
		period: cfg.UncoreFreq.PeriodPs(),
	}
	for 1<<m.lineShift != cfg.LineBytes {
		m.lineShift++ // LineBytes is a validated power of two
	}
	if b := cfg.L2Banks; b&(b-1) == 0 {
		m.bankMask = uint64(b - 1)
	}
	for i := range m.l2 {
		m.l2[i] = mustCache(cfg.L2Sets, cfg.L2Ways, cfg.LineBytes)
	}
	return m
}

// Stats returns cumulative traffic counters.
func (m *MemSys) Stats() Stats { return m.stats }

// BankOf returns the L2 bank servicing addr.
func (m *MemSys) BankOf(addr uint64) int {
	if m.bankMask != 0 {
		return int((addr >> m.lineShift) & m.bankMask)
	}
	return int((addr / uint64(m.Cfg.LineBytes)) % uint64(m.Cfg.L2Banks))
}

// Submit enqueues an L1 miss into its L2 bank queue.
func (m *MemSys) Submit(r Request) {
	m.stats.Submitted++
	b := m.BankOf(r.Addr)
	m.banks[b].push(r)
	m.bankOcc++
	if len(m.banks) <= 64 {
		m.bankBits |= 1 << uint(b)
	}
}

// NextTickAfter returns the first uncore cycle boundary strictly after t,
// advancing the internal cycle cursor model. The uncore grid is anchored
// at time zero.
func (m *MemSys) NextTickAfter(t clock.Time) clock.Time {
	k := t/m.period + 1
	return k * m.period
}

// NextDone returns the land time of the earliest scheduled completion, or
// false if none are in flight.
func (m *MemSys) NextDone() (clock.Time, bool) {
	at := clock.Time(0)
	ok := false
	if m.l2Done.len() > 0 {
		at, ok = m.l2Done.peek().At, true
	}
	if m.dramDone.len() > 0 {
		if t := m.dramDone.peek().At; !ok || t < at {
			at, ok = t, true
		}
	}
	if len(m.local) > 0 {
		if t := m.local[0].At; !ok || t < at {
			at, ok = t, true
		}
	}
	return at, ok
}

// Tick advances the shared hierarchy by one uncore cycle at time now:
// every bank dequeues one request (L2 hit → response after L2Latency;
// miss → DRAM queue and L2 fill on the miss path), and DRAM dequeues up
// to DRAMWidth requests (response after DRAMLat).
func (m *MemSys) Tick(now clock.Time) {
	if m.bankOcc > 0 && len(m.banks) <= 64 {
		// Visit only occupied banks; bit order is ascending bank index,
		// matching the plain scan exactly.
		for bb := m.bankBits; bb != 0; bb &= bb - 1 {
			b := bits.TrailingZeros64(bb)
			m.tickBank(b, now)
		}
	} else if m.bankOcc > 0 {
		for b := range m.banks {
			if m.banks[b].len() == 0 {
				continue
			}
			m.tickBank(b, now)
		}
	}
	m.tickDRAM(now)
}

// TickRun advances the shared hierarchy through consecutive uncore cycles
// starting at now, stopping before horizon (exclusive) — a time the
// caller guarantees free of CU events, so no new request can be submitted
// inside the window. TickRun additionally stops before the earliest land
// time of any completion it could itself schedule (now + min latency), so
// the caller never misses a response. The first cycle at now always runs.
// It returns the time of the next uncore cycle and whether queued work
// remains; with no queued work the hierarchy needs no further ticks until
// the next Submit.
//
// Batching cycles here instead of returning to the event loop for each
// one is what makes memory-bound stretches cheap: the per-event loop
// overhead (schedule min scans, completion checks) is paid once per
// batch, not once per 625ps uncore cycle.
func (m *MemSys) TickRun(now, horizon clock.Time) (clock.Time, bool) {
	minLat := m.Cfg.L2Latency
	if m.Cfg.DRAMLat < minLat {
		minLat = m.Cfg.DRAMLat
	}
	if h := now + clock.Time(minLat)*m.period; h < horizon {
		horizon = h
	}
	t := now
	for {
		m.Tick(t)
		if m.bankOcc == 0 && m.dramQ.len() == 0 {
			return 0, false
		}
		t += m.period
		if t >= horizon {
			return t, true
		}
	}
}

// tickBank dequeues one request from a non-empty bank queue: L2 hit →
// response after L2Latency; miss → DRAM queue.
func (m *MemSys) tickBank(b int, now clock.Time) {
	r := m.banks[b].pop()
	m.bankOcc--
	if m.banks[b].len() == 0 {
		m.bankBits &^= 1 << uint(b)
	}
	if m.l2[b].Probe(r.Addr) {
		m.stats.L2Hits++
		m.seq++
		m.l2Done.push(completion{At: now + clock.Time(m.Cfg.L2Latency)*m.period, Seq: m.seq, Req: r})
		return
	}
	m.stats.L2Misses++
	m.dramQ.push(r)
}

// tickDRAM dequeues up to DRAMWidth requests from the DRAM queue, filling
// L2 on the miss path and scheduling responses after DRAMLat.
func (m *MemSys) tickDRAM(now clock.Time) {
	for i := 0; i < m.Cfg.DRAMWidth && m.dramQ.len() > 0; i++ {
		r := m.dramQ.pop()
		m.stats.DRAMReqs++
		m.l2[m.BankOf(r.Addr)].Fill(r.Addr)
		m.seq++
		m.dramDone.push(completion{At: now + clock.Time(m.Cfg.DRAMLat)*m.period, Seq: m.seq, Req: r})
	}
}

// ScheduleLocal schedules a response that bypasses the shared hierarchy —
// the CU uses it for L1 hits, whose latency is in the CU's own clock
// domain. The response lands through the same deterministic completion
// queue as L2/DRAM responses. CU clock frequencies can drop between
// issues, so local land times are not monotonic and need the heap.
func (m *MemSys) ScheduleLocal(r Request, at clock.Time) {
	r.L1Hit = true
	m.seq++
	m.local.push(completion{At: at, Seq: m.seq, Req: r})
}

// PopDone appends to buf every completion landing at or before now, in
// deterministic (time, sequence) order, and returns the extended slice.
// The order is identical to a single (At, Seq) min-heap over all three
// completion sources.
func (m *MemSys) PopDone(now clock.Time, buf []Request) []Request {
	for {
		const none = -1
		src := none
		var at clock.Time
		var seq int64
		if m.l2Done.len() > 0 {
			if c := m.l2Done.peek(); c.At <= now {
				src, at, seq = 0, c.At, c.Seq
			}
		}
		if m.dramDone.len() > 0 {
			if c := m.dramDone.peek(); c.At <= now && (src == none || lessAtSeq(c.At, c.Seq, at, seq)) {
				src, at, seq = 1, c.At, c.Seq
			}
		}
		if len(m.local) > 0 {
			if c := &m.local[0]; c.At <= now && (src == none || lessAtSeq(c.At, c.Seq, at, seq)) {
				src = 2
			}
		}
		switch src {
		case 0:
			buf = append(buf, m.l2Done.pop().Req)
		case 1:
			buf = append(buf, m.dramDone.pop().Req)
		case 2:
			buf = append(buf, m.local.pop().Req)
		default:
			return buf
		}
	}
}

// InFlight returns the number of scheduled, unlanded completions.
func (m *MemSys) InFlight() int {
	return m.l2Done.len() + m.dramDone.len() + len(m.local)
}

// QueueDepth returns the total occupancy of bank and DRAM queues, an
// indicator of contention used by tests and traces.
func (m *MemSys) QueueDepth() int {
	n := m.dramQ.len()
	for i := range m.banks {
		n += m.banks[i].len()
	}
	return n
}

// L2HitRate returns the cumulative L2 hit fraction (0 when no traffic).
func (m *MemSys) L2HitRate() float64 {
	tot := m.stats.L2Hits + m.stats.L2Misses
	if tot == 0 {
		return 0
	}
	return float64(m.stats.L2Hits) / float64(tot)
}

// Clone returns a deep copy of the full shared-hierarchy state. Queue and
// completion state is copied eagerly (it is small and churns constantly);
// the L2 tag arrays — the bulk — are shared copy-on-write via Cache.Clone.
func (m *MemSys) Clone() *MemSys { return m.CloneInto(nil) }

// CloneInto is Clone writing into dst, whose queue, completion and bank
// buffers are reused so a recycled fork re-clones without regrowing them.
// dst's previous state is discarded (any L2 shares it still holds are
// Released first); it must not be m itself or share buffers with it. A
// nil dst allocates a fresh MemSys.
func (m *MemSys) CloneInto(dst *MemSys) *MemSys {
	if dst == nil {
		dst = &MemSys{}
	} else {
		dst.Release()
	}
	banks, dramQ, l2 := dst.banks, dst.dramQ, dst.l2
	l2Done, dramDone, local := dst.l2Done, dst.dramDone, dst.local
	*dst = *m
	if cap(banks) < len(m.banks) {
		banks = make([]queue, len(m.banks))
	}
	dst.banks = banks[:len(m.banks)]
	for i := range m.banks {
		m.banks[i].cloneInto(&dst.banks[i])
	}
	m.dramQ.cloneInto(&dramQ)
	dst.dramQ = dramQ
	if cap(l2) < len(m.l2) {
		l2 = make([]Cache, len(m.l2))
	}
	dst.l2 = l2[:len(m.l2)]
	for i := range m.l2 {
		dst.l2[i] = m.l2[i].Clone()
	}
	m.l2Done.cloneInto(&l2Done)
	dst.l2Done = l2Done
	m.dramDone.cloneInto(&dramDone)
	dst.dramDone = dramDone
	dst.local = append(local[:0], m.local...)
	return dst
}

// Release drops this MemSys's copy-on-write share of the L2 tag arrays.
// Call it when discarding a Clone whose parent lives on; forgetting it is
// safe, merely slower. The MemSys must not be used after Release, except
// as the destination of a CloneInto.
func (m *MemSys) Release() {
	for i := range m.l2 {
		m.l2[i].Release()
	}
}
