package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pcstall/internal/dvfs"
	"pcstall/internal/metricdoc"
)

// TestMetricInventory: every serve_* series a server registers while
// handling one request of each kind is documented in DESIGN.md's serve_
// row (labels and templated parts normalized), and every documented
// name is registered.
func TestMetricInventory(t *testing.T) {
	backend := &stubBackend{cached: map[string]*dvfs.Result{}}
	s, reg := newTestServer(t, backend, nil)
	h := s.Handler()
	do := func(method, target, body string, hdr ...string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	cold := do("POST", "/v1/sim", simBody(1))                                     // cold run
	do("POST", "/v1/sim", simBody(1))                                             // hot tier
	do("POST", "/v1/sim", simBody(1), "If-None-Match", cold.Header().Get("ETag")) // 304
	do("POST", "/v1/sim", `{"app":"nope"}`)                                       // 400
	j, _, err := s.parseSimRequest(strings.NewReader(simBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	backend.cached[j.Key()] = &dvfs.Result{}
	do("POST", "/v1/sim", simBody(2)) // result-cache short circuit
	async := do("POST", "/v1/sim?async=1", simBody(3))
	loc := async.Header().Get("Location")
	do("POST", "/v1/figures/5", "")
	do("GET", loc, "")
	do("GET", loc+"/events", "")
	for _, path := range []string{"/v1/workloads", "/v1/designs", "/v1/figures", "/v1/version", "/healthz"} {
		do("GET", path, "")
	}
	if cold.Code != http.StatusOK || async.Code != http.StatusAccepted {
		t.Fatalf("setup requests: cold %d, async %d", cold.Code, async.Code)
	}

	problems, err := metricdoc.Check("../../DESIGN.md", "serve_", reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestPhaseHistogramsCountEachOccurrence: serve_time_in_queue_seconds
// observes every admitted job exactly once, whether it reached a worker
// slot or was cancelled while still queued, and each
// serve_handler_<endpoint>_seconds counts exactly the requests served on
// its endpoint, failed ones included.
func TestPhaseHistogramsCountEachOccurrence(t *testing.T) {
	backend := &stubBackend{block: make(chan struct{})}
	s, reg := newTestServer(t, backend, func(c *Config) { c.Workers = 1 })
	h := s.Handler()
	// An async job takes the only worker slot and holds it.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sim?async=1", strings.NewReader(simBody(1))))
	if w.Code != http.StatusAccepted {
		t.Fatalf("async admit: status %d", w.Code)
	}
	waitFor(t, func() bool { return atomic.LoadInt32(&backend.simCalls) == 1 })
	// A sync job queues behind it; its client hangs up, which cancels
	// the job while it is still queued.
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		req := httptest.NewRequest("POST", "/v1/sim", strings.NewReader(simBody(2))).WithContext(ctx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	waitFor(t, func() bool { return reg.Counter("serve_jobs_total", "").Value() == 2 })
	cancel()
	<-served
	waitFor(t, func() bool { return reg.Counter("serve_jobs_cancelled_total", "").Value() == 1 })
	postSim(t, h, `{"app":"nope"}`)
	for i := 0; i < 3; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	}
	close(backend.block)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if n := snap.Histograms["serve_time_in_queue_seconds"].Count; n != 2 {
		t.Errorf("serve_time_in_queue_seconds counted %d jobs, want 2", n)
	}
	for endpoint, want := range map[string]int64{"sim": 3, "healthz": 3} {
		var requests int64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "serve_requests_"+endpoint+"_") {
				requests += v
			}
		}
		if requests != want {
			t.Errorf("serve_requests_%s_* sum to %d, want %d", endpoint, requests, want)
		}
		if n := snap.Histograms["serve_handler_"+endpoint+"_seconds"].Count; n != want {
			t.Errorf("serve_handler_%s_seconds counted %d requests, want %d", endpoint, n, want)
		}
	}
}
