// Package mem implements the GPU memory hierarchy substrate: per-CU L1
// caches, a banked shared L2 running in the fixed uncore clock domain, and
// a DRAM model with fixed latency and bounded bandwidth.
//
// Everything in this package is plain data (flat slices, no pointers
// between components), so the whole hierarchy can be deep-copied by
// Clone for the fork-pre-execute oracle. Tag arrays — the bulk of the
// state — are copy-on-write: Clone shares them under a refcount and the
// first mutation on either side privatizes what it touches, so a fork
// pays only for the cache state it writes. Timing decisions (when a
// bank dequeues, when a response lands) are made in integer picoseconds
// using the uncore frequency, and are fully deterministic.
package mem

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// tagArray is one cache's packed ways, shareable between clones. ref
// counts the Caches holding it, as their array or as the shared base of a
// partial copy (see Cache). owned is used while the array is a partial
// copy's private overlay: bit s is set once set s has been copied in.
type tagArray struct {
	ent   []uint64
	owned []uint64
	ref   atomic.Int32
}

// arrPools recycles tag arrays by geometry. Fork-heavy users (the oracle
// samples ten clones per epoch, each taking a private overlay for every
// cache it writes) would otherwise churn megabytes of garbage per epoch;
// Release feeds arrays whose refcount hits zero back to the pool.
var arrPools sync.Map // [2]int{sets, ways} → *sync.Pool of *tagArray

func arrPoolFor(sets, ways int) *sync.Pool {
	key := [2]int{sets, ways}
	if p, ok := arrPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := arrPools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// Cache is a set-associative cache with true-LRU replacement. It models
// tags only — the simulator never materializes data — and is a value type
// whose Clone snapshots the full tag state. The snapshot is copy-on-write:
// Clone shares the tag array under a refcount, and the first write on
// either side makes the writer private. A small array (wholeCopyMax) is
// copied whole; a larger one turns the writer into a partial copy — a
// private overlay array plus the shared array as its base — that copies
// each set into the overlay on its first access. A fork that touches a
// few hundred of an L2 bank's sets copies only those. Sharing is
// safe even when clones run on other goroutines (the refcount is atomic
// and a shared array is never written), which is what lets multiple
// oracle samplers fork the same quiescent parent GPU concurrently.
//
// Each way is one packed word — tag in the low half, LRU stamp in the
// high half — so a 16-way set scan touches half the host cache lines a
// split tag/stamp layout would. The 32-bit tag bounds the modeled address
// space at lineBytes<<32 (256 GiB with 64-byte lines); Probe and Fill
// panic beyond it rather than aliasing silently.
type Cache struct {
	sets      uint32
	ways      uint32
	lineShift uint32 // log2 of the line size; hot paths mask it with 63 so shifts compile plain
	// setMask is sets-1 when the set count is a power of two (the common
	// case), letting setOf mask instead of divide; 0 otherwise.
	setMask uint32
	tick    uint64
	// ent is arr.ent: sets*ways packed ways, bits [31:0] the tag (0 =
	// invalid, otherwise lineAddr+1), bits [63:32] the LRU stamp.
	ent []uint64
	// arr is the array this cache writes. While base is nil the cache is
	// whole: arr holds every set, shared with clones while arr.ref > 1
	// and written in place only when this cache is its sole holder.
	arr *tagArray
	// base is non-nil while the cache is a partial copy: arr is then a
	// private overlay (ref 1) holding the sets marked in arr.owned, and
	// every other set is still read from base, which stays unwritten.
	base *tagArray
	// pool is the recycler for arrays of this geometry, resolved once at
	// construction so the copy-on-write hot path never touches the
	// global sync.Map.
	pool *sync.Pool
	// hits and misses are cumulative probe outcomes.
	hits, misses int64
}

// GeometryError reports an invalid cache shape passed to NewCache.
type GeometryError struct {
	Sets, Ways, LineBytes int
}

// Error implements error.
func (e *GeometryError) Error() string {
	return fmt.Sprintf("mem: invalid cache geometry (%d sets, %d ways, %d-byte lines): sets and ways must be positive and the line size a power of two",
		e.Sets, e.Ways, e.LineBytes)
}

// NewCache builds a cache with the given geometry. sets and ways must be
// positive; lineBytes must be a power of two. Invalid shapes return a
// *GeometryError.
func NewCache(sets, ways, lineBytes int) (Cache, error) {
	if sets < 1 || ways < 1 || lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return Cache{}, &GeometryError{Sets: sets, Ways: ways, LineBytes: lineBytes}
	}
	shift := uint32(0)
	for 1<<shift != lineBytes {
		shift++
	}
	c := Cache{
		sets:      uint32(sets),
		ways:      uint32(ways),
		lineShift: shift,
		pool:      arrPoolFor(sets, ways),
	}
	c.arr = c.newArr()
	c.ent = c.arr.ent
	clear(c.ent)
	if sets&(sets-1) == 0 {
		c.setMask = uint32(sets - 1)
	}
	return c, nil
}

// mustCache is NewCache for geometries already vetted by Config.Validate.
func mustCache(sets, ways, lineBytes int) Cache {
	c, err := NewCache(sets, ways, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.sets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return int(c.ways) }

// CapacityBytes returns the total capacity.
func (c *Cache) CapacityBytes() int {
	return int(c.sets) * int(c.ways) * (1 << c.lineShift)
}

// Hits returns the cumulative hit count.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the cumulative miss count.
func (c *Cache) Misses() int64 { return c.misses }

func (c *Cache) setOf(addr uint64) uint32 {
	if c.setMask != 0 {
		return uint32(addr>>(c.lineShift&63)) & c.setMask
	}
	return uint32((addr >> (c.lineShift & 63)) % uint64(c.sets))
}

// tagOf returns addr's packed tag (lineAddr+1, never 0).
func (c *Cache) tagOf(addr uint64) uint64 {
	line := addr>>(c.lineShift&63) + 1
	if line > 0xffffffff {
		c.addrPanic(addr)
	}
	return line
}

// addrPanic reports an address beyond the 32-bit tag range; it is kept
// out of tagOf so that stays small enough to inline.
//
//go:noinline
func (c *Cache) addrPanic(addr uint64) {
	panic(fmt.Sprintf("mem: address %#x beyond the %d GiB model limit", addr, uint64(1)<<(c.lineShift+2)))
}

// bump advances the LRU clock, renormalizing stamps in the (practically
// unreachable) event the 32-bit stamp field would overflow. Halving every
// stamp preserves their relative order up to ties, which the way index
// then breaks deterministically.
func (c *Cache) bump() uint64 {
	c.tick++
	if c.tick > 0xffffffff {
		c.renormalize()
	}
	return c.tick
}

// renormalize halves the LRU clock and every stamp.
func (c *Cache) renormalize() {
	c.private()
	for i, e := range c.ent {
		c.ent[i] = e>>33<<32 | e&0xffffffff
	}
	c.tick >>= 1
}

// newArr returns a tag array of this geometry with refcount 1 and
// arbitrary contents: callers must overwrite every set they later read.
func (c *Cache) newArr() *tagArray {
	a, _ := c.pool.Get().(*tagArray)
	if a == nil {
		a = &tagArray{
			ent:   make([]uint64, int(c.sets)*int(c.ways)),
			owned: make([]uint64, (c.sets+63)/64),
		}
	}
	a.ref.Store(1)
	return a
}

// drop releases one hold on a, recycling it once nobody holds it.
func (c *Cache) drop(a *tagArray) {
	if a.ref.Add(-1) == 0 {
		c.pool.Put(a)
	}
}

// owns reports whether set s lives in c.ent: always for a whole cache,
// once copied in for a partial copy.
func (c *Cache) owns(s uint32) bool {
	return c.base == nil || c.arr.owned[s>>6]&(1<<(s&63)) != 0
}

// wholeCopyMax is the array length (in ways) up to which a shared cache
// privatizes its whole array on first write instead of becoming a partial
// copy: copying a small array (an L1's 2 KiB) once costs less than
// checking and copying set by set on every access that follows.
const wholeCopyMax = 512

// writable makes set s safe to write in c.ent. For the sole holder of a
// whole array it is two loads and a compare on the hot path. A small
// whole array still shared with a clone is copied outright; a larger one
// turns this cache into a partial copy over it, which copies each set in
// from its base on first use.
func (c *Cache) writable(s uint32) {
	if c.base == nil && c.arr.ref.Load() == 1 {
		return
	}
	c.copySet(s)
}

// copySet is writable's copy-on-write path.
func (c *Cache) copySet(s uint32) {
	if c.base == nil {
		if len(c.ent) <= wholeCopyMax {
			c.private()
			return
		}
		c.base = c.arr
		c.arr = c.newArr()
		clear(c.arr.owned)
		c.ent = c.arr.ent
	}
	if w := &c.arr.owned[s>>6]; *w&(1<<(s&63)) == 0 {
		b := s * c.ways
		copy(c.ent[b:b+c.ways], c.base.ent[b:b+c.ways])
		*w |= 1 << (s & 63)
	}
}

// flatten writes the cache's full logical tag state into dst.
func (c *Cache) flatten(dst []uint64) {
	if c.base == nil {
		copy(dst, c.ent)
		return
	}
	for s := uint32(0); s < c.sets; s++ {
		src := c.base.ent
		if c.owns(s) {
			src = c.ent
		}
		b := s * c.ways
		copy(dst[b:b+c.ways], src[b:b+c.ways])
	}
}

// private makes this cache the whole, sole holder of its tag state,
// copying it out of shared or partial storage if need be.
func (c *Cache) private() {
	if c.base == nil && c.arr.ref.Load() == 1 {
		return
	}
	a := c.newArr()
	c.flatten(a.ent)
	c.Release()
	c.arr, c.ent = a, a.ent
}

// Probe looks up addr, updating LRU state and hit/miss counters. It
// returns true on hit. Probe does not allocate on miss; pair it with Fill.
func (c *Cache) Probe(addr uint64) bool {
	tick := c.bump()
	tag := c.tagOf(addr)
	s := c.setOf(addr)
	c.writable(s)
	base := s * c.ways
	// One bounded subslice lets the compiler drop per-way bounds checks.
	set := c.ent[base : base+c.ways]
	for w := range set {
		if uint32(set[w]) == uint32(tag) {
			set[w] = tick<<32 | tag
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Contains reports whether addr is resident without touching LRU state or
// counters (used by tests and invariant checks).
func (c *Cache) Contains(addr uint64) bool {
	tag := c.tagOf(addr)
	s := c.setOf(addr)
	ent := c.ent
	if !c.owns(s) {
		ent = c.base.ent
	}
	base := s * c.ways
	for w := uint32(0); w < c.ways; w++ {
		if uint32(ent[base+w]) == uint32(tag) {
			return true
		}
	}
	return false
}

// Fill installs addr's line, evicting the LRU way of its set if needed.
// It returns the evicted line address and whether an eviction happened.
// Filling an already-resident line refreshes its LRU stamp.
func (c *Cache) Fill(addr uint64) (evicted uint64, wasEvicted bool) {
	tick := c.bump()
	tag := c.tagOf(addr)
	s := c.setOf(addr)
	c.writable(s)
	base := s * c.ways
	set := c.ent[base : base+c.ways]
	// One pass looks for the line and, in case it is absent, for the
	// victim: the lowest-index invalid way, else the least recently used
	// one. Keying each way by its stamp (high half) and index (low half)
	// makes that the minimum key: an invalid way is the all-zero word, so
	// its key is its bare index, below every stamped way, and equal
	// stamps (possible only after bump renormalizes) fall to the lower
	// index. The stamp order is random, so a compare-and-branch minimum
	// mispredicts on most sets; minNoBranch does not branch. Two
	// interleaved minima halve the dependency chain.
	best0, best1 := ^uint64(0), ^uint64(0)
	w := 0
	for ; w+1 < len(set); w += 2 {
		e0, e1 := set[w], set[w+1]
		if uint32(e0) == uint32(tag) {
			set[w] = tick<<32 | tag
			return 0, false
		}
		if uint32(e1) == uint32(tag) {
			set[w+1] = tick<<32 | tag
			return 0, false
		}
		best0 = minNoBranch(best0, e0&^0xffffffff|uint64(w))
		best1 = minNoBranch(best1, e1&^0xffffffff|uint64(w+1))
	}
	if w < len(set) {
		e := set[w]
		if uint32(e) == uint32(tag) {
			set[w] = tick<<32 | tag
			return 0, false
		}
		best0 = minNoBranch(best0, e&^0xffffffff|uint64(w))
	}
	victim := minNoBranch(best0, best1) & 0xffffffff
	if old := set[victim] & 0xffffffff; old != 0 {
		evicted = (old - 1) << (c.lineShift & 63)
		wasEvicted = true
	}
	set[victim] = tick<<32 | tag
	return evicted, wasEvicted
}

// minNoBranch returns min(a, b) through the subtraction's borrow instead
// of a data-dependent branch.
func minNoBranch(a, b uint64) uint64 {
	d, borrow := bits.Sub64(b, a, 0) // borrow == 1 iff b < a
	return a + d&-borrow
}

// Flush invalidates every line and resets counters.
func (c *Cache) Flush() {
	if c.base != nil || c.arr.ref.Load() > 1 {
		// Shared storage must not be zeroed in place; detach instead.
		c.Release()
		c.arr = c.newArr()
		c.ent = c.arr.ent
	}
	clear(c.ent)
	c.tick = 0
	c.hits = 0
	c.misses = 0
}

// Clone returns a logically independent copy. A whole cache's tag array
// is shared copy-on-write, so cloning it is O(1) regardless of capacity;
// a partial copy (itself written while shared) spans two arrays, and its
// clone gets a whole copy of its own. Clone never writes c's storage, so
// clones of one quiescent cache may be taken concurrently, and the clone
// and the parent may subsequently run on different goroutines.
func (c *Cache) Clone() Cache {
	d := *c
	if c.base == nil {
		c.arr.ref.Add(1)
		return d
	}
	d.base = nil
	d.arr = c.newArr()
	d.ent = d.arr.ent
	c.flatten(d.ent)
	return d
}

// Release drops this Cache's hold on its tag arrays. Calling it when
// discarding a clone lets the surviving sharer write in place again
// instead of taking a private overlay; forgetting it is safe, merely
// slower. The Cache must not be used after Release.
func (c *Cache) Release() {
	if c.arr != nil {
		c.drop(c.arr)
		if c.base != nil {
			c.drop(c.base)
		}
		c.arr, c.base, c.ent = nil, nil, nil
	}
}
