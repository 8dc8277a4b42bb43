package load

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcstall/internal/wire"
	"pcstall/internal/xrand"
)

// TestScheduleDeterministic: the same seed yields the identical arrival
// schedule; distinct seeds diverge; arrivals are sorted and inside the
// window.
func TestScheduleDeterministic(t *testing.T) {
	r1, r2 := xrand.New(7), xrand.New(7)
	a := schedule(100, time.Second, &r1)
	b := schedule(100, time.Second, &r2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("no arrivals at 100/s over 1s")
	}
	// Poisson at 100/s over 1s: ~100 arrivals; deterministic here, but
	// hold it loosely so a generator change that breaks the rate shows.
	if len(a) < 60 || len(a) > 150 {
		t.Fatalf("arrival count %d far from offered 100", len(a))
	}
	for i := range a {
		if a[i] < 0 || a[i] >= time.Second {
			t.Fatalf("arrival %d = %v outside the window", i, a[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	r3 := xrand.New(8)
	if c := schedule(100, time.Second, &r3); reflect.DeepEqual(a, c) {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

// TestMixesDeterministic: every mix's request sequence is a pure
// function of (seed, i); unique's bodies never repeat; cachehot cycles
// a bounded pool; figure-lane emits both classes.
func TestMixesDeterministic(t *testing.T) {
	apps := []string{"comd", "hpgmg"}
	figs := []string{"10", "14"}
	for name, m := range Mixes {
		r1, r2 := xrand.New(3), xrand.New(3)
		for i := 0; i < 200; i++ {
			a := m.generate(&r1, 3, i, apps, figs)
			b := m.generate(&r2, 3, i, apps, figs)
			if a != b {
				t.Fatalf("%s: request %d not deterministic: %+v vs %+v", name, i, a, b)
			}
			switch a.Class {
			case ClassCached, ClassCold, ClassFigure:
			default:
				t.Fatalf("%s: request %d has unknown class %q", name, i, a.Class)
			}
			if a.Class == ClassFigure && a.Body != "" {
				t.Fatalf("%s: figure request %d carries a sim body", name, i)
			}
		}
	}

	rng := xrand.New(3)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		body := Mixes["unique"].generate(&rng, 3, i, apps, figs).Body
		if seen[body] {
			t.Fatalf("unique mix repeated body %s at %d", body, i)
		}
		seen[body] = true
	}

	rng = xrand.New(3)
	pool := map[string]bool{}
	for i := 0; i < 200; i++ {
		pool[Mixes["cachehot"].generate(&rng, 3, i, apps, figs).Body] = true
	}
	if len(pool) != cacheHotPool {
		t.Fatalf("cachehot pool has %d distinct bodies, want %d", len(pool), cacheHotPool)
	}

	rng = xrand.New(3)
	classes := map[string]int{}
	for i := 0; i < 200; i++ {
		classes[Mixes["figlane"].generate(&rng, 3, i, apps, figs).Class]++
	}
	if classes[ClassFigure] == 0 || classes[ClassCold] == 0 {
		t.Fatalf("figlane classes = %v, want both figure and cold traffic", classes)
	}
}

// TestPlanSeedsFreshConfigs: the plan is a pure function of the run
// seed, and the "fresh" sim configs of two runs with different seeds
// never coincide, so a server that kept its cache dir between them
// still computes every unique request cold. Figure-lane's figure/cold
// split draws from the request stream alone, so it does not move with
// the body seeds.
func TestPlanSeedsFreshConfigs(t *testing.T) {
	apps := []string{"comd", "hpgmg"}
	figs := []string{"10", "14"}
	for _, mix := range []string{"unique", "figlane"} {
		cfg := func(seed uint64) Config {
			return Config{Mix: mix, Rate: 400, Duration: time.Second, Seed: seed}
		}
		a1, r1 := plan(cfg(1), Mixes[mix], apps, figs)
		a1b, r1b := plan(cfg(1), Mixes[mix], apps, figs)
		if !reflect.DeepEqual(a1, a1b) || !reflect.DeepEqual(r1, r1b) {
			t.Fatalf("%s: the same seed gave two different plans", mix)
		}
		_, r2 := plan(cfg(2), Mixes[mix], apps, figs)
		bodies := map[string]bool{}
		for _, r := range r1 {
			if r.Body != "" {
				bodies[r.Body] = true
			}
		}
		if len(bodies) < 100 {
			t.Fatalf("%s: only %d sim bodies in the seed-1 plan", mix, len(bodies))
		}
		for i, r := range r2 {
			if bodies[r.Body] {
				t.Fatalf("%s: seed 2 request %d replays seed 1's fresh config %s", mix, i, r.Body)
			}
		}
	}
	ra, rb := xrand.New(5), xrand.New(5)
	for i := 0; i < 200; i++ {
		a := Mixes["figlane"].generate(&ra, 1, i, apps, figs)
		b := Mixes["figlane"].generate(&rb, 2, i, apps, figs)
		if a.Class != b.Class || a.Path != b.Path {
			t.Fatalf("figlane request %d: run seed moved the figure/cold sequence (%+v vs %+v)", i, a, b)
		}
	}
	for i := 0; i < 1000; i++ {
		for _, seed := range []uint64{0, 1, 2, 1 << 30} {
			if s := uniqueSeed(seed, i); s < uniqueSeedBase {
				t.Fatalf("body seed %d (run seed %d, request %d) falls among the pool seeds", s, seed, i)
			}
		}
	}
}

// stampedHandler answers like a healthy pcstall-serve: 200 with a
// digest stamp and an ETag, honoring If-None-Match with 304.
func stampedHandler(counter *int32) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if counter != nil {
			atomic.AddInt32(counter, 1)
		}
		body, _ := io.ReadAll(r.Body)
		etag := fmt.Sprintf("%q", wire.Digest(body))
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		resp := []byte(`{"status":"done","echo":` + fmt.Sprintf("%q", body) + `}`)
		w.Header().Set("ETag", etag)
		w.Header().Set(wire.DigestHeader, wire.Digest(resp))
		w.Write(resp)
	}
}

// TestRunAgainstStub: a run against a healthy stub answers every
// scheduled arrival OK (with some 304 replays in cachehot), validates,
// and reports monotone percentiles.
func TestRunAgainstStub(t *testing.T) {
	srv := httptest.NewServer(stampedHandler(nil))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Targets:  []string{srv.URL},
		Mix:      "cachehot",
		Rate:     400,
		Duration: 250 * time.Millisecond,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Sent != rep.Offered || rep.Offered == 0 {
		t.Fatalf("sent %d of %d offered", rep.Sent, rep.Offered)
	}
	if rep.Errors != 0 || rep.Corrupt != 0 {
		t.Fatalf("errors=%d corrupt=%d against a healthy stub", rep.Errors, rep.Corrupt)
	}
	cached := rep.Classes[ClassCached]
	if cached == nil || cached.OK+cached.NotModified != cached.Sent {
		t.Fatalf("cached class = %+v, want all ok/304", cached)
	}
	if cached.NotModified == 0 {
		t.Error("no 304s: If-None-Match replay is not reaching the wire")
	}
	var buf strings.Builder
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "mix=cachehot") || !strings.Contains(buf.String(), "cached") {
		t.Errorf("summary missing expected fields:\n%s", buf.String())
	}
}

// TestRunOpenLoop: the harness keeps offering load while every earlier
// request is still stalled — all scheduled arrivals reach the server
// before any response is released. A closed-loop client would deadlock
// here at concurrency 1.
func TestRunOpenLoop(t *testing.T) {
	var arrived int32
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&arrived, 1)
		<-release
		io.ReadAll(r.Body)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	const rate, window = 200, 200 * time.Millisecond
	done := make(chan *Report, 1)
	go func() {
		rep, err := Run(context.Background(), Config{
			Targets:  []string{srv.URL},
			Mix:      "unique",
			Rate:     rate,
			Duration: window,
			Seed:     5,
		})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()

	// Every scheduled arrival must land while zero responses have been
	// served. The offered count for this seed is deterministic, so learn
	// it from the schedule itself.
	rng := xrand.New(5).Split(1)
	offered := len(schedule(rate, window, &rng))
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt32(&arrived) < int32(offered) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d arrivals reached the stalled server: the harness is closed-loop",
				atomic.LoadInt32(&arrived), offered)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	rep := <-done
	if rep.Sent != offered {
		t.Fatalf("sent %d, want %d", rep.Sent, offered)
	}
}

// TestRunClassifiesSheds: 429s with Retry-After count as sheds per
// class, with the hint surfaced, and do not count as harness errors.
func TestRunClassifiesSheds(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.ReadAll(r.Body)
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Targets:  []string{srv.URL},
		Mix:      "unique",
		Rate:     300,
		Duration: 100 * time.Millisecond,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	cold := rep.Classes[ClassCold]
	if cold.Shed != cold.Sent || cold.ShedRate != 1 {
		t.Fatalf("cold = %+v, want everything shed", cold)
	}
	if cold.MaxRetryAfterSec != 7 {
		t.Errorf("MaxRetryAfterSec = %d, want 7", cold.MaxRetryAfterSec)
	}
	if rep.Errors != 0 {
		t.Errorf("sheds counted as errors: %d", rep.Errors)
	}
	if rep.TotalShed() != cold.Sent {
		t.Errorf("TotalShed = %d, want %d", rep.TotalShed(), cold.Sent)
	}
}

// TestRunDetectsCorruption: a digest stamp that does not cover the body
// is counted as corruption and fails validation gates.
func TestRunDetectsCorruption(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.ReadAll(r.Body)
		w.Header().Set(wire.DigestHeader, "fnv1a64:dead")
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Targets:  []string{srv.URL},
		Mix:      "unique",
		Rate:     200,
		Duration: 50 * time.Millisecond,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt == 0 || rep.Corrupt != rep.Errors {
		t.Fatalf("corrupt=%d errors=%d, want every response flagged", rep.Corrupt, rep.Errors)
	}
}

// TestRunRoundRobin: multiple targets each receive traffic.
func TestRunRoundRobin(t *testing.T) {
	var hits [2]int32
	var srvs [2]*httptest.Server
	for i := range srvs {
		srvs[i] = httptest.NewServer(stampedHandler(&hits[i]))
		defer srvs[i].Close()
	}
	rep, err := Run(context.Background(), Config{
		Targets:  []string{srvs[0].URL, srvs[1].URL},
		Mix:      "unique",
		Rate:     200,
		Duration: 100 * time.Millisecond,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := atomic.LoadInt32(&hits[0]), atomic.LoadInt32(&hits[1])
	if a == 0 || b == 0 || int(a+b) != rep.Sent {
		t.Fatalf("target hits = (%d, %d), sent %d: round-robin broken", a, b, rep.Sent)
	}
}

// TestRunConfigErrors: bad configs are refused up front.
func TestRunConfigErrors(t *testing.T) {
	cases := []Config{
		{Mix: "unique", Rate: 1, Duration: time.Second},                                              // no targets
		{Targets: []string{"http://x"}, Mix: "nope", Rate: 1, Duration: time.Second},                 // unknown mix
		{Targets: []string{"http://x"}, Mix: "unique", Rate: 0, Duration: time.Second},               // zero rate
		{Targets: []string{"http://x"}, Mix: "unique", Rate: 1, Duration: -1 * time.Second},          // negative window
		{Targets: []string{"http://x"}, Mix: "unique", Rate: math.NaN(), Duration: time.Second},      // NaN rate
		{Targets: []string{"http://x"}, Mix: "unique", Rate: math.Inf(1), Duration: time.Second},     // +Inf rate
		{Targets: []string{"http://x"}, Mix: "unique", Rate: 1e12, Duration: 5 * time.Second},        // over the arrival cap
		{Targets: []string{"http://x"}, Mix: "unique", Rate: maxArrivals + 1, Duration: time.Second}, // just over the cap
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: no error for invalid config %+v", i, cfg)
		}
	}
}

// TestReportValidateCatches: structural defects fail validation.
func TestReportValidateCatches(t *testing.T) {
	good := func() *Report {
		return &Report{
			Mix: "unique", OfferedRPS: 10, DurationSec: 1, Offered: 5, Sent: 5,
			Classes: map[string]*ClassStats{
				ClassCold: {Sent: 5, OK: 5, P50Ms: 1, P95Ms: 2, P99Ms: 3},
			},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good report invalid: %v", err)
	}
	mutations := map[string]func(*Report){
		"unknown mix":        func(r *Report) { r.Mix = "nope" },
		"sent over offered":  func(r *Report) { r.Sent = 9 },
		"unknown class":      func(r *Report) { r.Classes["weird"] = &ClassStats{} },
		"outcome sum":        func(r *Report) { r.Classes[ClassCold].OK = 2 },
		"percentile inverse": func(r *Report) { r.Classes[ClassCold].P95Ms = 9 },
		"no classes":         func(r *Report) { r.Classes = nil },
	}
	for name, mutate := range mutations {
		r := good()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

// TestPercentileMs covers the nearest-rank edges.
func TestPercentileMs(t *testing.T) {
	if got := percentileMs(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99}
	for q, want := range cases {
		if got := percentileMs(samples, q); got != want {
			t.Errorf("p%.0f = %v, want %v", q*100, got, want)
		}
	}
	one := []time.Duration{3 * time.Millisecond}
	if got := percentileMs(one, 0.99); got != 3 {
		t.Errorf("single-sample p99 = %v, want 3", got)
	}
}

// TestRunCancel: cancelling the context stops dispatch; the report
// covers what was sent and still validates.
func TestRunCancel(t *testing.T) {
	srv := httptest.NewServer(stampedHandler(nil))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	rep, err := Run(ctx, Config{
		Targets:  []string{srv.URL},
		Mix:      "unique",
		Rate:     100,
		Duration: 5 * time.Second,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent >= rep.Offered {
		t.Fatalf("sent %d of %d: cancellation did not stop dispatch", rep.Sent, rep.Offered)
	}
	if rep.Sent > 0 {
		if err := rep.Validate(); err != nil {
			t.Fatalf("cancelled report invalid: %v", err)
		}
	}
}
