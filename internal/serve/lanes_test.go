package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pcstall/internal/dvfs"
	"pcstall/internal/orchestrate"
	"pcstall/internal/wire"
	"pcstall/internal/workload"
)

// postFigure posts one figure-regeneration request.
func postFigure(t *testing.T, h http.Handler, id string, async bool) *httptest.ResponseRecorder {
	t.Helper()
	url := "/v1/figures/" + id
	if async {
		url += "?async=1"
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", url, nil))
	return w
}

// TestBodyLRUHit: the first settlement of a sim promotes its rendered
// body into the hot tier; an identical later request is served from the
// LRU byte-identically — same body, same ETag, same wire digest —
// without running a simulation, touching the result cache, or
// re-rendering JSON.
func TestBodyLRUHit(t *testing.T) {
	backend := &stubBackend{}
	s, reg := newTestServer(t, backend, nil)

	first := postSim(t, s.Handler(), simBody(21))
	if first.Code != http.StatusOK {
		t.Fatalf("first sim: %d: %s", first.Code, first.Body.String())
	}
	second := postSim(t, s.Handler(), simBody(21))
	if second.Code != http.StatusOK {
		t.Fatalf("second sim: %d: %s", second.Code, second.Body.String())
	}

	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("LRU-served body differs from the cold-rendered one:\n%s\nvs\n%s",
			second.Body.String(), first.Body.String())
	}
	if a, b := first.Header().Get("ETag"), second.Header().Get("ETag"); a == "" || a != b {
		t.Errorf("ETag diverged across the hot tier: %q vs %q", a, b)
	}
	a, b := first.Header().Get(wire.DigestHeader), second.Header().Get(wire.DigestHeader)
	if a == "" || a != b {
		t.Errorf("%s diverged across the hot tier: %q vs %q", wire.DigestHeader, a, b)
	}
	if got := wire.Digest(second.Body.Bytes()); got != b {
		t.Errorf("LRU digest stamp %q does not match the body (%q)", b, got)
	}

	if got := atomic.LoadInt32(&backend.simCalls); got != 1 {
		t.Errorf("RunSim called %d times, want 1 (second request must hit the LRU)", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_body_cache_hits_total"]; got != 1 {
		t.Errorf("serve_body_cache_hits_total = %d, want 1", got)
	}
	if got := snap.Counters["serve_cache_short_circuit_total"]; got != 0 {
		t.Errorf("serve_cache_short_circuit_total = %d, want 0 (LRU outranks the result cache)", got)
	}

	// A coordinator replaying with the validator gets 304 off the LRU.
	req := httptest.NewRequest("POST", "/v1/sim", strings.NewReader(simBody(21)))
	req.Header.Set("If-None-Match", first.Header().Get("ETag"))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Errorf("If-None-Match on LRU hit: code=%d len=%d, want 304 empty", w.Code, w.Body.Len())
	}
}

// TestBodyLRUCachedPromotion: a result-cache short-circuit renders once
// and promotes the body, so the next identical request never touches
// the result cache again.
func TestBodyLRUCachedPromotion(t *testing.T) {
	j := testDefaults()
	j.App = workload.Names()[0]
	j.Design = "PCSTALL"
	j.Seed = 23
	j.SimVersion = orchestrate.SimVersion
	backend := &stubBackend{cached: map[string]*dvfs.Result{j.Key(): {}}}
	s, reg := newTestServer(t, backend, nil)

	first := postSim(t, s.Handler(), simBody(23))
	second := postSim(t, s.Handler(), simBody(23))
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("codes %d, %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("bodies diverged between result-cache render and LRU replay")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_cache_short_circuit_total"]; got != 1 {
		t.Errorf("serve_cache_short_circuit_total = %d, want 1 (only the first request)", got)
	}
	if got := snap.Counters["serve_body_cache_hits_total"]; got != 1 {
		t.Errorf("serve_body_cache_hits_total = %d, want 1", got)
	}
}

// TestBodyLRUEvictionBounded: a server whose body budget holds one
// rendered body evicts under churn instead of growing, and publishes
// the shape truthfully.
func TestBodyLRUEvictionBounded(t *testing.T) {
	// Measure one rendered body on a throwaway server.
	probe := postSim(t, func() http.Handler {
		s, _ := newTestServer(t, &stubBackend{}, nil)
		return s.Handler()
	}(), simBody(31))
	if probe.Code != http.StatusOK {
		t.Fatalf("probe sim: %d", probe.Code)
	}
	budget := int64(probe.Body.Len()) * 3 / 2 // fits one body, not two

	s, reg := newTestServer(t, &stubBackend{}, func(c *Config) {
		c.BodyCacheBytes = budget
	})
	for _, seed := range []uint64{31, 32, 33} {
		if w := postSim(t, s.Handler(), simBody(seed)); w.Code != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, w.Code, w.Body.String())
		}
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["serve_body_cache_bytes"]; int64(got) > budget {
		t.Errorf("serve_body_cache_bytes = %v exceeds budget %d", got, budget)
	}
	if got := snap.Gauges["serve_body_cache_entries"]; got != 1 {
		t.Errorf("serve_body_cache_entries = %v, want 1 under a one-body budget", got)
	}
	if got := snap.Counters["serve_body_cache_evictions_total"]; got != 2 {
		t.Errorf("serve_body_cache_evictions_total = %d, want 2", got)
	}
}

// TestFigureQueueFullSheds: the figure lane bounds figures on its own
// budget — shedding them with a figure-lane Retry-After and counter —
// while cold sims keep flowing untouched.
func TestFigureQueueFullSheds(t *testing.T) {
	backend := &stubBackend{figBlock: make(chan struct{})}
	defer close(backend.figBlock)
	s, reg := newTestServer(t, backend, func(c *Config) {
		c.FigureQueue = 1
		c.Workers = 1
	})

	if w := postFigure(t, s.Handler(), "5", true); w.Code != http.StatusAccepted {
		t.Fatalf("figure admit: status %d", w.Code)
	}
	w := postFigure(t, s.Handler(), "14", false)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("figure over budget: status %d, want 429\nbody: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("figure 429 missing Retry-After")
	}
	if e := decodeError(t, w); !strings.Contains(e.Error, "figure admission queue full") {
		t.Errorf("shed error does not name the figure lane: %q", e.Error)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`serve_shed_total{class="figure"}`]; got != 1 {
		t.Errorf(`serve_shed_total{class="figure"} = %d, want 1`, got)
	}
	if got := snap.Counters[`serve_shed_total{class="cold"}`]; got != 0 {
		t.Errorf(`serve_shed_total{class="cold"} = %d, want 0`, got)
	}

	// The figure backlog never sheds a sim.
	if w := postSim(t, s.Handler(), simBody(41)); w.Code != http.StatusOK {
		t.Errorf("sim under figure backlog: status %d, want 200", w.Code)
	}
}

// TestRetryAfterPerLane: each lane's Retry-After is computed from its
// own backlog and cost model. A saturated cold-sim lane (8 queued jobs
// behind one worker) must not inflate the hint a shed figure client
// receives, and vice versa.
func TestRetryAfterPerLane(t *testing.T) {
	backend := &stubBackend{
		block:    make(chan struct{}),
		figBlock: make(chan struct{}),
	}
	defer close(backend.block)
	defer close(backend.figBlock)
	s, _ := newTestServer(t, backend, func(c *Config) {
		c.MaxQueue = 8
		c.FigureQueue = 1
		c.Workers = 1
	})

	// Boundary: exactly MaxQueue admissions succeed...
	for seed := uint64(50); seed < 58; seed++ {
		req := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(seed)))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			t.Fatalf("seed %d: status %d, want 202 (under the bound)", seed, w.Code)
		}
	}
	// ...and one figure fills its own lane.
	if w := postFigure(t, s.Handler(), "5", true); w.Code != http.StatusAccepted {
		t.Fatalf("figure admit under cold backlog: status %d, want 202", w.Code)
	}

	// The 9th distinct sim sheds: no observed settlements and a zero
	// Stats fallback mean 1s/job, backlog 8, one worker => 8s.
	w := postSim(t, s.Handler(), simBody(58))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-bound sim: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "8" {
		t.Errorf("cold Retry-After = %q, want \"8\" (backlog 8 / 1 worker x 1s)", ra)
	}

	// A shed figure answers from the figure lane's model: backlog 1,
	// 30s first-figure guess, single figure slot => 30s — regardless of
	// the eight cold sims queued next door.
	w = postFigure(t, s.Handler(), "14", false)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-bound figure: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "30" {
		t.Errorf("figure Retry-After = %q, want \"30\" (cold backlog must not leak in)", ra)
	}
}

// TestHealthzQueues: /healthz breaks the queue shape out per admission
// lane with capacities, while the aggregate fields stay the lane sums.
func TestHealthzQueues(t *testing.T) {
	backend := &stubBackend{
		block:    make(chan struct{}),
		figBlock: make(chan struct{}),
	}
	defer close(backend.block)
	defer close(backend.figBlock)
	s, _ := newTestServer(t, backend, func(c *Config) {
		c.MaxQueue = 5
		c.FigureQueue = 3
		c.Workers = 1
	})
	for _, seed := range []uint64{61, 62} {
		req := httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(seed)))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, w.Code)
		}
	}
	if w := postFigure(t, s.Handler(), "5", true); w.Code != http.StatusAccepted {
		t.Fatalf("figure admit: status %d", w.Code)
	}

	var h healthResponse
	waitFor(t, func() bool {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
		if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		// One sim running + one queued, one figure running.
		return h.Queues["cold"].Running == 1 && h.Queues["figure"].Running == 1
	})
	cold, fig := h.Queues["cold"], h.Queues["figure"]
	if cold.QueueDepth != 1 || cold.Capacity != 5 {
		t.Errorf("cold lane = %+v, want queue_depth 1 capacity 5", cold)
	}
	if fig.QueueDepth != 0 || fig.Capacity != 3 {
		t.Errorf("figure lane = %+v, want queue_depth 0 capacity 3", fig)
	}
	if h.QueueDepth != cold.QueueDepth+fig.QueueDepth || h.Running != cold.Running+fig.Running {
		t.Errorf("aggregates (%d, %d) are not the lane sums: %+v", h.QueueDepth, h.Running, h.Queues)
	}
}

// TestNewRejectsNegativeSizes: a negative FigureQueue or BodyCacheBytes
// is refused with an error naming the field, while 0 still selects the
// defaults.
func TestNewRejectsNegativeSizes(t *testing.T) {
	cases := map[string]func(*Config){
		"FigureQueue":    func(c *Config) { c.FigureQueue = -1 },
		"BodyCacheBytes": func(c *Config) { c.BodyCacheBytes = -1 },
	}
	for field, mutate := range cases {
		cfg := Config{Backend: &stubBackend{}, Defaults: testDefaults()}
		mutate(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Config."+field) {
			t.Errorf("negative %s: err = %v, want an error naming Config.%s", field, err, field)
		}
	}
	s, err := New(Config{Backend: &stubBackend{}, Defaults: testDefaults()})
	if err != nil {
		t.Fatal(err)
	}
	if s.figure.max != defaultFigureQueue || s.bodies.max != defaultBodyCacheBytes {
		t.Errorf("zero config: figure lane %d, body budget %d; want %d, %d",
			s.figure.max, s.bodies.max, defaultFigureQueue, defaultBodyCacheBytes)
	}
}
