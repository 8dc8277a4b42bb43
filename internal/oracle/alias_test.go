package oracle

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"pcstall/internal/clock"
	"pcstall/internal/power"
)

// marshalTruth renders a Truth to a canonical byte form so tests can
// detect any later mutation, however deep.
func marshalTruth(t *testing.T, tr *Truth) []byte {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTruthDoesNotAliasScratch: the Sampler reuses its scratch
// EpochSample across SampleNext calls, so every slice and map in a
// returned Truth must be freshly allocated — a Truth held by a caller
// must stay byte-identical while later samples churn the scratch.
func TestTruthDoesNotAliasScratch(t *testing.T) {
	pm := power.DefaultModelFor(2)
	g := memGPU(t, 2)
	g.RunUntil(5 * clock.Microsecond)
	s := sampler(&pm, true) // CollectWF exercises the scratch WF records

	first := s.SampleNext(g, clock.Microsecond)
	snap := marshalTruth(t, first)
	g.RunUntil(10 * clock.Microsecond)
	for i := 0; i < 3; i++ {
		s.SampleNext(g, clock.Microsecond)
	}
	if got := marshalTruth(t, first); !bytes.Equal(got, snap) {
		t.Fatal("Truth returned by an earlier SampleNext was mutated by later samples — it aliases sampler scratch state")
	}
}

// TestConcurrentSamplersSharedParent: distinct Samplers may sample the
// same quiescent parent GPU from different goroutines (the documented
// contract the CoW clone machinery exists for). Under -race this is the
// gate proving forks share no mutable state with each other or the
// parent; in any mode both goroutines must reproduce the sequential
// result exactly. Each Sampler also fans its own forks out internally
// (GOMAXPROCS is raised to at least 2 so it does on any machine), so the
// parent is shared by forks of both samplers at once.
func TestConcurrentSamplersSharedParent(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	pm := power.DefaultModelFor(2)
	g := memGPU(t, 2)
	g.RunUntil(5 * clock.Microsecond)

	want := marshalTruth(t, sampler(&pm, true).SampleNext(g, clock.Microsecond))

	const par = 2
	got := make([][]byte, par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sampler(&pm, true)
			tr := s.SampleNext(g, clock.Microsecond)
			b, err := json.Marshal(tr)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = b
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("concurrent sampler %d diverged from the sequential sample", i)
		}
	}
}
