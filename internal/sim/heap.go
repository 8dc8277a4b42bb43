package sim

import "pcstall/internal/clock"

// InfTime is a sentinel "never" time for sleeping components.
const InfTime = clock.Time(1) << 62

// linearScanMax is the component count up to which the tick schedule uses
// a flat array scan instead of heap maintenance. Up to 64 components the
// key array spans at most eight cache lines, so a branch-free linear min
// beats heap sift costs — and set() becomes a single store.
const linearScanMax = 64

// tickHeap is an indexed schedule of per-component tick times. For up to
// linearScanMax components it is a flat array (set is one store, min is a
// linear scan); beyond that it is an indexed binary min-heap. Components
// are dense indices [0, n); ties break on component index so event
// ordering — and therefore the whole simulation — is deterministic in
// both modes.
type tickHeap struct {
	key    []clock.Time // key[i] = component i's next tick
	heap   []int32      // heap of component indices (heap mode only)
	pos    []int32      // pos[i] = index of component i within heap
	linear bool
}

func newTickHeap(n int) tickHeap {
	h := tickHeap{
		key:    make([]clock.Time, n),
		linear: n <= linearScanMax,
	}
	for i := 0; i < n; i++ {
		h.key[i] = InfTime
	}
	if h.linear {
		return h
	}
	h.heap = make([]int32, n)
	h.pos = make([]int32, n)
	for i := 0; i < n; i++ {
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
	return h
}

func (h *tickHeap) less(a, b int32) bool {
	ka, kb := h.key[h.heap[a]], h.key[h.heap[b]]
	if ka != kb {
		return ka < kb
	}
	return h.heap[a] < h.heap[b]
}

func (h *tickHeap) swap(a, b int32) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *tickHeap) up(i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *tickHeap) down(i int32) {
	n := int32(len(h.heap))
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// set updates component i's next tick time.
func (h *tickHeap) set(i int32, t clock.Time) {
	if h.linear {
		h.key[i] = t
		return
	}
	h.setHeap(i, t)
}

// setHeap is set for heap mode, kept apart so set stays small enough to
// inline into the event loop.
func (h *tickHeap) setHeap(i int32, t clock.Time) {
	old := h.key[i]
	if old == t {
		return
	}
	h.key[i] = t
	if t < old {
		h.up(h.pos[i])
	} else {
		h.down(h.pos[i])
	}
}

// min returns the component with the earliest tick and its time.
func (h *tickHeap) min() (int32, clock.Time) {
	if h.linear {
		// Keys lie in [0, InfTime], so k-bk cannot overflow and its sign
		// bit says whether k is smaller: the scan selects with masks,
		// because which component is earliest changes unpredictably.
		best, bk := int32(0), h.key[0]
		for i, k := range h.key {
			d := k - bk
			lt := d >> 63 // -1 if k < bk, else 0
			bk += d & lt
			best ^= (best ^ int32(i)) & int32(lt)
		}
		return best, bk
	}
	i := h.heap[0]
	return i, h.key[i]
}

// cloneInto deep-copies the schedule into dst, reusing dst's array
// capacity.
func (h *tickHeap) cloneInto(dst *tickHeap) {
	*dst = tickHeap{
		key:    reuse(dst.key, h.key),
		heap:   reuse(dst.heap, h.heap),
		pos:    reuse(dst.pos, h.pos),
		linear: h.linear,
	}
}
