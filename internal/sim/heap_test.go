package sim

import (
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/xrand"
)

// TestTickHeapModesAgree: the flat-array schedule (up to linearScanMax
// components) and the binary heap (beyond it) must name the same next
// component after any sequence of updates, ties broken on the lowest
// index, or event order — and every simulated result — would depend on
// the GPU's CU count crossing the threshold. Keys are drawn from a few
// values so ties are frequent, and include InfTime (a sleeping CU).
func TestTickHeapModesAgree(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64} {
		lin := newTickHeap(n)
		if !lin.linear {
			t.Fatalf("%d components: want the linear schedule", n)
		}
		hp := tickHeap{key: make([]clock.Time, n), heap: make([]int32, n), pos: make([]int32, n)}
		for i := 0; i < n; i++ {
			hp.key[i] = InfTime
			hp.heap[i] = int32(i)
			hp.pos[i] = int32(i)
		}
		rng := xrand.New(uint64(n))
		for op := 0; op < 5000; op++ {
			i := int32(rng.Intn(n))
			k := clock.Time(rng.Intn(6)) * 100
			if rng.Intn(8) == 0 {
				k = InfTime
			}
			lin.set(i, k)
			hp.set(i, k)
			li, lk := lin.min()
			hi, hk := hp.min()
			if li != hi || lk != hk {
				t.Fatalf("%d components, op %d: linear min (%d, %d), heap min (%d, %d)", n, op, li, lk, hi, hk)
			}
			for j := int32(0); j < li; j++ {
				if lin.key[j] <= lk {
					t.Fatalf("%d components, op %d: min (%d, %d) but component %d has key %d", n, op, li, lk, j, lin.key[j])
				}
			}
		}
	}
}
