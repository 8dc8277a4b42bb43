package serve

import (
	"bytes"
	"fmt"
	"testing"
)

// TestBodyCacheBasics: put/get round-trips bytes and digest, a missing
// key misses.
func TestBodyCacheBasics(t *testing.T) {
	c := newBodyCache(1 << 10)
	body := []byte(`{"x":1}`)
	if ev := c.put("k1", body, "d1"); ev != 0 {
		t.Fatalf("put evicted %d, want 0", ev)
	}
	got, digest, ok := c.get("k1")
	if !ok || !bytes.Equal(got, body) || digest != "d1" {
		t.Fatalf("get = (%q, %q, %v), want (%q, %q, true)", got, digest, ok, body, "d1")
	}
	if _, _, ok := c.get("nope"); ok {
		t.Fatal("get on a missing key reported a hit")
	}
}

// TestBodyCacheBoundedChurn: under sustained churn of distinct keys the
// cache never exceeds its byte budget, evicts in LRU order, and a get
// refreshes recency.
func TestBodyCacheBoundedChurn(t *testing.T) {
	const budget = 1000
	c := newBodyCache(budget)
	body := make([]byte, 100)
	evicted := 0
	for i := 0; i < 500; i++ {
		evicted += c.put(fmt.Sprintf("k%03d", i), body, "d")
		if _, size := c.stats(); size > budget {
			t.Fatalf("after put %d: size %d exceeds budget %d", i, size, budget)
		}
	}
	entries, size := c.stats()
	if entries != 10 || size != 1000 {
		t.Fatalf("steady state = (%d entries, %d bytes), want (10, 1000)", entries, size)
	}
	if evicted != 490 {
		t.Fatalf("evicted %d entries, want 490", evicted)
	}
	// The survivors are the most recent ten.
	for i := 490; i < 500; i++ {
		if _, _, ok := c.get(fmt.Sprintf("k%03d", i)); !ok {
			t.Fatalf("recent key k%03d was evicted", i)
		}
	}
	// Touching the oldest survivor protects it from the next eviction.
	c.get("k490")
	c.put("new", body, "d")
	if _, _, ok := c.get("k490"); !ok {
		t.Fatal("freshly touched key was evicted; recency not refreshed")
	}
	if _, _, ok := c.get("k491"); ok {
		t.Fatal("LRU key survived an over-budget put")
	}
}

// TestBodyCacheOversized: a body larger than the whole budget is not
// stored — it would evict everything to hold one entry.
func TestBodyCacheOversized(t *testing.T) {
	c := newBodyCache(64)
	c.put("small", make([]byte, 10), "d")
	if ev := c.put("huge", make([]byte, 65), "d"); ev != 0 {
		t.Fatalf("oversized put evicted %d entries", ev)
	}
	if _, _, ok := c.get("huge"); ok {
		t.Fatal("oversized body was stored")
	}
	if _, _, ok := c.get("small"); !ok {
		t.Fatal("oversized put displaced an existing entry")
	}
}

// TestBodyCacheDuplicatePut: re-putting a key refreshes recency without
// growing the accounted size (content-addressed keys mean same bytes).
func TestBodyCacheDuplicatePut(t *testing.T) {
	c := newBodyCache(1000)
	body := make([]byte, 100)
	c.put("a", body, "d")
	c.put("b", body, "d")
	c.put("a", body, "d") // refresh, not re-insert
	entries, size := c.stats()
	if entries != 2 || size != 200 {
		t.Fatalf("after duplicate put: (%d entries, %d bytes), want (2, 200)", entries, size)
	}
}
