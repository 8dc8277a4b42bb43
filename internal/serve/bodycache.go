package serve

import (
	"container/list"
	"sync"
)

// bodyCache is the serving layer's hot tier: a bounded in-memory LRU of
// fully rendered response bodies keyed by the SimVersion'd job key. It
// sits above the orchestrator's memo and JSONL disk cache — those hold
// *dvfs.Result records, so every hit through them still pays a JSON
// render (MarshalIndent over the whole result); a bodyCache hit returns
// the exact bytes a previous settlement produced, plus their
// pre-computed wire digest, and pays neither.
//
// Safety rests on the same invariant the singleflight fan-out already
// relies on: a job key is a content address (SimVersion included), so
// matching keys means matching bodies, byte for byte. Entries are only
// ever populated from settled-OK renders, and the stored slices are
// treated as immutable by every reader (settle publishes them read-only).
type bodyCache struct {
	mu    sync.Mutex
	max   int64 // byte budget across stored bodies
	size  int64
	ll    *list.List // *bodyEntry values; front = most recently used
	byKey map[string]*list.Element
}

// bodyEntry is one cached rendering: the settled bytes and the
// wire.Digest stamp computed over them at settle time.
type bodyEntry struct {
	key    string
	body   []byte
	digest string
}

// newBodyCache builds a cache bounded to max bytes of stored bodies.
func newBodyCache(max int64) *bodyCache {
	return &bodyCache{
		max:   max,
		ll:    list.New(),
		byKey: map[string]*list.Element{},
	}
}

// get returns the cached body and digest for key, refreshing its
// recency. The returned slice must not be mutated.
func (c *bodyCache) get(key string) (body []byte, digest string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, "", false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*bodyEntry)
	return e.body, e.digest, true
}

// put stores a settled body under key, evicting least-recently-used
// entries until the byte budget holds. A body larger than the whole
// budget is not stored (it would evict everything for one entry). put
// reports how many entries were evicted, so the caller can count them.
func (c *bodyCache) put(key string, body []byte, digest string) (evicted int) {
	if int64(len(body)) > c.max {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Same key, same bytes (content-addressed): just refresh recency.
		c.ll.MoveToFront(el)
		return 0
	}
	el := c.ll.PushFront(&bodyEntry{key: key, body: body, digest: digest})
	c.byKey[key] = el
	c.size += int64(len(body))
	for c.size > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*bodyEntry)
		c.ll.Remove(back)
		delete(c.byKey, e.key)
		c.size -= int64(len(e.body))
		evicted++
	}
	return evicted
}

// stats snapshots the cache shape for gauges.
func (c *bodyCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.size
}
