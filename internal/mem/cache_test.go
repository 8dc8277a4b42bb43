package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"pcstall/internal/xrand"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := mustCache(4, 2, 64)
	if c.Probe(0x1000) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(0x1000)
	if !c.Probe(0x1000) {
		t.Fatal("miss after fill")
	}
	if !c.Probe(0x1010) {
		t.Fatal("miss within same line")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct-mapped-per-set behaviour with 1 set, 2 ways.
	c := mustCache(1, 2, 64)
	c.Fill(0x000)
	c.Fill(0x040)
	c.Probe(0x000) // make 0x000 most recent
	evicted, was := c.Fill(0x080)
	if !was || evicted != 0x040 {
		t.Fatalf("evicted %#x (%v), want 0x40", evicted, was)
	}
	if !c.Contains(0x000) || c.Contains(0x040) || !c.Contains(0x080) {
		t.Fatal("wrong residency after LRU eviction")
	}
}

func TestCacheFillRefreshesLRU(t *testing.T) {
	c := mustCache(1, 2, 64)
	c.Fill(0x000)
	c.Fill(0x040)
	// Refill 0x000: no eviction, and it becomes most recent.
	if ev, was := c.Fill(0x000); was {
		t.Fatalf("refill evicted %#x", ev)
	}
	c.Fill(0x080)
	if !c.Contains(0x000) || c.Contains(0x040) {
		t.Fatal("refill did not refresh LRU")
	}
}

func TestCacheContainsDoesNotTouch(t *testing.T) {
	c := mustCache(1, 2, 64)
	c.Fill(0x000)
	c.Fill(0x040)
	h, m := c.Hits(), c.Misses()
	c.Contains(0x000) // must not update LRU or counters
	if c.Hits() != h || c.Misses() != m {
		t.Fatal("Contains changed counters")
	}
	c.Fill(0x080) // LRU should still be 0x000
	if c.Contains(0x000) {
		t.Fatal("Contains refreshed LRU")
	}
}

func TestCacheSetIsolation(t *testing.T) {
	c := mustCache(8, 1, 64)
	// Lines mapping to different sets must not evict each other.
	for i := uint64(0); i < 8; i++ {
		c.Fill(i * 64)
	}
	for i := uint64(0); i < 8; i++ {
		if !c.Contains(i * 64) {
			t.Fatalf("line %d missing despite distinct sets", i)
		}
	}
}

func TestCacheFlush(t *testing.T) {
	c := mustCache(4, 2, 64)
	c.Fill(0x1000)
	c.Probe(0x1000)
	c.Flush()
	if c.Contains(0x1000) || c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("flush incomplete")
	}
}

func TestCacheGeometry(t *testing.T) {
	c := mustCache(64, 4, 64)
	if c.CapacityBytes() != 16*1024 {
		t.Fatalf("capacity %d", c.CapacityBytes())
	}
	if c.Sets() != 64 || c.Ways() != 4 || c.LineBytes() != 64 {
		t.Fatal("geometry accessors wrong")
	}
}

func TestCacheConstructorRejectsBadGeometry(t *testing.T) {
	for _, g := range [][3]int{{0, 1, 64}, {1, 0, 64}, {1, 1, 63}, {1, 1, 0}, {-1, 1, 64}} {
		_, err := NewCache(g[0], g[1], g[2])
		var ge *GeometryError
		if !errors.As(err, &ge) {
			t.Errorf("geometry %v: got %v, want *GeometryError", g, err)
		}
	}
	if _, err := NewCache(4, 2, 64); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

// refLRU is a trivially correct reference: per set, an ordered list of
// resident lines, most recent first.
type refLRU struct {
	sets, ways int
	lines      [][]uint64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{sets: sets, ways: ways, lines: make([][]uint64, sets)}
}

func (r *refLRU) setOf(line uint64) int { return int(line % uint64(r.sets)) }

func (r *refLRU) probe(line uint64) bool {
	s := r.setOf(line)
	for i, l := range r.lines[s] {
		if l == line {
			r.lines[s] = append([]uint64{line}, append(append([]uint64{}, r.lines[s][:i]...), r.lines[s][i+1:]...)...)
			return true
		}
	}
	return false
}

func (r *refLRU) fill(line uint64) {
	s := r.setOf(line)
	if r.probe(line) {
		return
	}
	r.lines[s] = append([]uint64{line}, r.lines[s]...)
	if len(r.lines[s]) > r.ways {
		r.lines[s] = r.lines[s][:r.ways]
	}
}

// TestCacheMatchesReferenceModel drives random probe/fill traffic through
// the cache and a reference true-LRU model and requires identical hit/miss
// behaviour.
func TestCacheMatchesReferenceModel(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		sets := 1 << rng.Intn(4) // 1..8
		ways := 1 + rng.Intn(4)
		c := mustCache(sets, ways, 64)
		ref := newRefLRU(sets, ways)
		for op := 0; op < 500; op++ {
			line := uint64(rng.Intn(sets * ways * 3))
			addr := line * 64
			if rng.Intn(2) == 0 {
				got := c.Probe(addr)
				want := ref.probe(line)
				if got != want {
					return false
				}
			} else {
				c.Fill(addr)
				ref.fill(line)
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheCloneIndependence(t *testing.T) {
	c := mustCache(4, 2, 64)
	c.Fill(0x1000)
	cp := c.Clone()
	cp.Fill(0x2000)
	if c.Contains(0x2000) {
		t.Fatal("clone writes leaked into original")
	}
	if !cp.Contains(0x1000) {
		t.Fatal("clone lost original contents")
	}
}

func (r *refLRU) clone() *refLRU {
	c := newRefLRU(r.sets, r.ways)
	for s, l := range r.lines {
		c.lines[s] = append([]uint64(nil), l...)
	}
	return c
}

func (r *refLRU) contains(line uint64) bool {
	for _, l := range r.lines[r.setOf(line)] {
		if l == line {
			return true
		}
	}
	return false
}

// TestCacheCopyOnWriteMatchesReference drives a family of clones through
// random probes, fills, flushes, clones (of whole caches and of partial
// copies) and releases, and requires each to behave exactly like its own
// independent reference model. Both geometries are covered: one small
// enough to be privatized whole on first write, one large enough to
// become a set-granular partial copy.
func TestCacheCopyOnWriteMatchesReference(t *testing.T) {
	for _, geo := range [][2]int{{16, 4}, {128, 8}} {
		sets, ways := geo[0], geo[1]
		rng := xrand.New(uint64(sets))
		first := mustCache(sets, ways, 64)
		caches := []*Cache{&first}
		refs := []*refLRU{newRefLRU(sets, ways)}
		for op := 0; op < 20000; op++ {
			i := rng.Intn(len(caches))
			c, ref := caches[i], refs[i]
			line := uint64(rng.Intn(sets * ways * 3))
			switch k := rng.Intn(100); {
			case k < 40:
				if got, want := c.Probe(line*64), ref.probe(line); got != want {
					t.Fatalf("%dx%d op %d: cache %d probe %d = %v, want %v", sets, ways, op, i, line, got, want)
				}
			case k < 80:
				c.Fill(line * 64)
				ref.fill(line)
			case k < 90:
				if got, want := c.Contains(line*64), ref.contains(line); got != want {
					t.Fatalf("%dx%d op %d: cache %d contains %d = %v, want %v", sets, ways, op, i, line, got, want)
				}
			case k < 95 && len(caches) < 6:
				cp := c.Clone()
				caches = append(caches, &cp)
				refs = append(refs, ref.clone())
			case k < 98 && len(caches) > 1:
				c.Release()
				caches = append(caches[:i], caches[i+1:]...)
				refs = append(refs[:i], refs[i+1:]...)
			case k < 99:
				c.Flush()
				refs[i] = newRefLRU(sets, ways)
			}
		}
	}
}
