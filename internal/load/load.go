// Package load is an open-loop load-test harness for pcstall-serve: a
// seeded, deterministic traffic generator that replays configurable
// request mixes against one or more backends and reports per-class
// outcome and latency distributions.
//
// Open-loop means the arrival schedule is fixed before the first
// request is sent: arrivals are drawn once from a seeded exponential
// (Poisson) process at the offered rate, and every request fires at its
// scheduled instant regardless of how many earlier requests are still
// outstanding. A closed-loop client (fixed concurrency, next request
// after the previous response) throttles itself exactly when the server
// degrades, hiding the overload the test exists to measure; an
// open-loop client keeps offering load while the server sheds, so shed
// rate and tail latency are measured against a truthful offered rate.
//
// Determinism: for a given (seed, mix, rate, duration, apps, figures)
// the schedule and the full request sequence — bodies, classes,
// validator replays — are identical across runs and machines. Only the
// measured outcomes vary with the server under test.
package load

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pcstall/internal/wire"
	"pcstall/internal/xrand"
)

// Config shapes one load run: one mix, one offered-load point.
type Config struct {
	// Targets are backend base URLs (e.g. http://127.0.0.1:8080);
	// requests round-robin across them. Required.
	Targets []string
	// Mix names the request mix (see Mixes). Required.
	Mix string
	// Rate is the offered arrival rate in requests/second. Required > 0.
	Rate float64
	// Duration is the scheduled arrival window. Required > 0. The run
	// itself lasts until the last response (or timeout) lands.
	Duration time.Duration
	// Seed fixes the arrival schedule and request sequence.
	Seed uint64
	// Apps are workload names to draw sim configs from; default comd.
	Apps []string
	// Figures are artifact ids for figure-lane traffic; default 10.
	Figures []string
	// Timeout bounds each request (default 60s).
	Timeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
	// Log, when non-nil, receives a short line per run phase.
	Log io.Writer
}

// outcome classification for one request.
const (
	outcomeOK          = "ok"
	outcomeNotModified = "not_modified"
	outcomeShed        = "shed"
	outcomeUnavailable = "unavailable"
	outcomeHTTPError   = "http_error"
	outcomeTransport   = "transport"
	outcomeCorrupt     = "corrupt"
)

// record is one completed request's measurement.
type record struct {
	class      string
	outcome    string
	latency    time.Duration
	retryAfter int
}

// plan fixes a run's arrival instants and requests from cfg.Seed. The
// schedule stream and the request stream are split from the seed
// independently, so changing the mix never perturbs the arrival instants
// (and vice versa).
func plan(cfg Config, mix Mix, apps, figures []string) ([]time.Duration, []request) {
	root := xrand.New(cfg.Seed)
	schedRng := root.Split(1)
	reqRng := root.Split(2)
	arrivals := schedule(cfg.Rate, cfg.Duration, &schedRng)
	reqs := make([]request, len(arrivals))
	for i := range reqs {
		reqs[i] = mix.generate(&reqRng, cfg.Seed, i, apps, figures)
	}
	return arrivals, reqs
}

// schedule draws the fixed open-loop arrival offsets: exponential
// interarrivals at rate over the window. The last arrival is strictly
// inside the window; a pathological rate/duration pair that yields no
// arrivals is the caller's validation problem.
func schedule(rate float64, dur time.Duration, rng *xrand.State) []time.Duration {
	var arrivals []time.Duration
	t := 0.0
	limit := dur.Seconds()
	for {
		// Exponential interarrival: -ln(1-U)/rate, U in [0,1).
		t += -math.Log(1-rng.Float64()) / rate
		if t >= limit {
			return arrivals
		}
		arrivals = append(arrivals, time.Duration(t*float64(time.Second)))
	}
}

// etagStore remembers ETags per request body so later identical
// requests can replay them as If-None-Match and measure the 304 path.
type etagStore struct {
	mu sync.Mutex
	m  map[string]string // body -> etag
}

func (e *etagStore) get(body string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m[body]
}

func (e *etagStore) put(body, etag string) {
	if etag == "" {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.m[body] = etag
}

// maxArrivals caps a run's expected arrival count (rate × window). The
// whole schedule and request sequence are built before the first send,
// so an absurd rate would otherwise allocate without bound.
const maxArrivals = 1 << 20

// Run executes one open-loop load run and returns its report. ctx
// cancellation stops dispatching new arrivals (already-fired requests
// run to their own timeouts); the report then covers what was sent.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("load: no targets")
	}
	if math.IsNaN(cfg.Rate) || math.IsInf(cfg.Rate, 0) || cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: rate (%v) must be finite and positive and duration (%v) positive", cfg.Rate, cfg.Duration)
	}
	if n := cfg.Rate * cfg.Duration.Seconds(); n > maxArrivals {
		return nil, fmt.Errorf("load: rate %v/s over %v plans about %.3g arrivals, more than the %d one run may schedule", cfg.Rate, cfg.Duration, n, maxArrivals)
	}
	mix, ok := Mixes[cfg.Mix]
	if !ok {
		return nil, fmt.Errorf("load: unknown mix %q (available: %s)", cfg.Mix, strings.Join(MixNames(), ", "))
	}
	apps := cfg.Apps
	if len(apps) == 0 {
		apps = []string{"comd"}
	}
	figures := cfg.Figures
	if len(figures) == 0 {
		figures = []string{"10"}
	}
	client := cfg.Client
	if client == nil {
		timeout := cfg.Timeout
		if timeout <= 0 {
			timeout = 60 * time.Second
		}
		client = &http.Client{Timeout: timeout}
	}

	arrivals, reqs := plan(cfg, mix, apps, figures)
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "load: mix=%s rate=%.1f/s window=%s offered=%d targets=%d seed=%d\n",
			cfg.Mix, cfg.Rate, cfg.Duration, len(reqs), len(cfg.Targets), cfg.Seed)
	}

	etags := &etagStore{m: map[string]string{}}
	records := make([]record, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	dispatched := 0
	for i := range reqs {
		// Hold the line open-loop: fire at the scheduled instant no
		// matter how many earlier requests are still in flight.
		if wait := time.Until(start.Add(arrivals[i])); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		dispatched++
		target := cfg.Targets[i%len(cfg.Targets)]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			records[i] = fire(ctx, client, target, reqs[i], etags)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := newReport(cfg, len(reqs), dispatched, wall)
	for _, r := range records[:dispatched] {
		rep.add(r)
	}
	rep.finish(wall)
	return rep, nil
}

// fire sends one scheduled request and classifies its outcome. Settled
// 200 bodies are verified against their X-Pcstall-Digest stamp, so a
// harness run doubles as an end-to-end integrity sweep.
func fire(ctx context.Context, client *http.Client, target string, req request, etags *etagStore) record {
	rec := record{class: req.Class}
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, target+req.Path, body)
	if err != nil {
		rec.outcome = outcomeTransport
		return rec
	}
	if req.Body != "" {
		hreq.Header.Set("Content-Type", "application/json")
		if req.Replay {
			if etag := etags.get(req.Body); etag != "" {
				hreq.Header.Set("If-None-Match", etag)
			}
		}
	}
	begin := time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		rec.latency = time.Since(begin)
		rec.outcome = outcomeTransport
		return rec
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(begin)
	if err != nil {
		rec.outcome = outcomeTransport
		return rec
	}
	switch resp.StatusCode {
	case http.StatusOK:
		rec.outcome = outcomeOK
		if req.Body != "" {
			etags.put(req.Body, resp.Header.Get("ETag"))
		}
		if stamp := resp.Header.Get(wire.DigestHeader); stamp != "" && wire.Digest(payload) != stamp {
			rec.outcome = outcomeCorrupt
		}
	case http.StatusNotModified:
		rec.outcome = outcomeNotModified
	case http.StatusTooManyRequests:
		rec.outcome = outcomeShed
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			rec.retryAfter = ra
		}
	case http.StatusServiceUnavailable:
		rec.outcome = outcomeUnavailable
	default:
		rec.outcome = outcomeHTTPError
	}
	return rec
}
