package telemetry

import "testing"

// The disabled path is the one every simulation pays: instrumentation
// against a nil registry must reduce to a nil check per call site.

func BenchmarkCounterAddDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("x", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	c := New().Counter("x", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := New().Counter("x", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.5)
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := NewHistogram(RatioBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.5)
	}
}
