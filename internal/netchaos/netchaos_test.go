package netchaos

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSpecRoundTrip(t *testing.T) {
	cases := []Config{
		{},
		{Seed: 7, FlipProb: 0.25},
		{RefuseProb: 0.1, DialLatency: 50 * time.Millisecond, HeaderLatency: 120 * time.Millisecond},
		{StallProb: 0.2, TruncateProb: 0.1, Err5xxProb: 0.3, Err429Prob: 0.05, ResetProb: 0.15, DupProb: 0.125, Seed: 42},
		Level(0.35, 9),
	}
	for _, c := range cases {
		spec := c.String()
		got, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got != c {
			t.Errorf("round-trip %q: got %+v, want %+v", spec, got, c)
		}
	}
	if (Config{}).String() != "" {
		t.Error("disabled config must render as empty spec")
	}
}

func TestParseLevelAndErrors(t *testing.T) {
	c, err := Parse("level=0.2,seed=5")
	if err != nil {
		t.Fatalf("level spec: %v", err)
	}
	if c != Level(0.2, 5) {
		t.Errorf("level spec expanded to %+v, want %+v", c, Level(0.2, 5))
	}
	for _, bad := range []string{
		"flip", "flip=x", "flip=1.5", "refuse=-0.1", "dlat=banana", "unknown=1", "seed=-2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
}

// FuzzNetchaosSpec: canonical specs name fault schedules, so for any
// spec Parse accepts, String must reparse to the same String — and,
// when the config injects anything, to an equal Config.
func FuzzNetchaosSpec(f *testing.F) {
	for _, spec := range []string{
		"", "flip=0.2,stall=0.1,dlat=50ms,seed=9", "level=0.2,seed=5", "level=0.35",
		"refuse=0.1,dlat=1h2m,hlat=1ns,trunc=1,e5xx=0.3,e429=0.05,reset=0.15,dup=0.125",
		" hlat = 0.5us , seed=18446744073709551615", "dup=-0,dlat=0s",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			return
		}
		canon := c.String()
		c2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its String %q rejected: %v", spec, canon, err)
		}
		if c2.String() != canon {
			t.Fatalf("String of %q is %q, which reparses to %q", spec, canon, c2.String())
		}
		if c.Enabled() && c2 != c {
			t.Fatalf("%q: %+v reparses from %q to %+v", spec, c, canon, c2)
		}
	})
}

func TestPlanDeterminism(t *testing.T) {
	cfg := Level(0.4, 77)
	a, b := NewEngine(cfg), NewEngine(cfg)
	for i := 0; i < 500; i++ {
		if pa, pb := a.Plan(), b.Plan(); pa != pb {
			t.Fatalf("plan %d diverged: %+v vs %+v", i, pa, pb)
		}
	}
	other := NewEngine(Level(0.4, 78))
	same := 0
	for i := 0; i < 500; i++ {
		if a.Plan().Class == other.Plan().Class {
			same++
		}
	}
	if same == 500 {
		t.Error("different seeds planned identical class sequences")
	}
}

// Zeroing one class out must not reshuffle the decisions of the others:
// every exchange draws the same fixed random sequence.
func TestPlanDrawCountInvariance(t *testing.T) {
	full := Level(0.4, 3)
	noTrunc := full
	noTrunc.TruncateProb = 0
	a, b := NewEngine(full), NewEngine(noTrunc)
	for i := 0; i < 300; i++ {
		pa, pb := a.Plan(), b.Plan()
		if pa.FlipBit != pb.FlipBit || pa.DialDelay != pb.DialDelay || pa.HeaderDelay != pb.HeaderDelay {
			t.Fatalf("plan %d: non-class fields diverged after zeroing trunc: %+v vs %+v", i, pa, pb)
		}
		if pa.Class != ClassTruncate && pa.Class != pb.Class {
			t.Fatalf("plan %d: class %q became %q after zeroing trunc", i, pa.Class, pb.Class)
		}
		if pa.Class == ClassTruncate && pb.Class == ClassTruncate {
			t.Fatalf("plan %d: zeroed class still fired", i)
		}
	}
}

func TestNilEngineIsNoop(t *testing.T) {
	var e *Engine
	if e.Enabled() {
		t.Error("nil engine reports enabled")
	}
	if p := e.Plan(); p != (Plan{}) {
		t.Errorf("nil engine planned %+v", p)
	}
	if s := e.Stats(); s != (Stats{}) {
		t.Errorf("nil engine has stats %+v", s)
	}
}

// simBody is the canonical settled body the test backend serves.
const simBody = `{"id":"k","result":{"ok":true},"pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}` + "\n"

// newBackend serves simBody on POST /v1/sim and counts hits.
func newBackend(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sim" {
			hits.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Pcstall-Digest", "fnv1a64:0000000000000000")
		io.WriteString(w, simBody)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// oneShot builds a client whose transport injects exactly cfg.
func oneShot(cfg Config) *http.Client {
	return &http.Client{Transport: NewTransport(nil, NewEngine(cfg))}
}

func postSim(t *testing.T, hc *http.Client, base string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sim", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	return hc.Do(req)
}

func TestTransportPassthrough(t *testing.T) {
	srv, _ := newBackend(t)
	for name, eng := range map[string]*Engine{
		"nil engine":      nil,
		"disabled config": NewEngine(Config{Seed: 9}),
	} {
		hc := &http.Client{Transport: NewTransport(nil, eng)}
		resp, err := postSim(t, hc, srv.URL)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != simBody {
			t.Errorf("%s: body altered through passthrough", name)
		}
		if got := resp.Header.Get("X-Pcstall-Digest"); got != "fnv1a64:0000000000000000" {
			t.Errorf("%s: digest header lost: %q", name, got)
		}
		if st := eng.Stats(); st.Exchanges != 0 {
			t.Errorf("%s: passthrough drew plans: %+v", name, st)
		}
	}
}

func TestTransportScopesToSim(t *testing.T) {
	srv, _ := newBackend(t)
	eng := NewEngine(Config{RefuseProb: 1})
	hc := &http.Client{Transport: NewTransport(nil, eng)}
	// Control-plane paths must never fault, even at refuse=1.
	for _, path := range []string{"/healthz", "/v1/version"} {
		resp, err := hc.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s under refuse=1: %v", path, err)
		}
		resp.Body.Close()
	}
	if _, err := postSim(t, hc, srv.URL); err == nil {
		t.Fatal("POST /v1/sim under refuse=1 succeeded")
	}
	if st := eng.Stats(); st.Exchanges != 1 || st.Refused != 1 {
		t.Errorf("stats %+v, want exactly one refused exchange", st)
	}
}

func TestTransportFaultClasses(t *testing.T) {
	srv, hits := newBackend(t)

	t.Run("refuse", func(t *testing.T) {
		before := hits.Load()
		_, err := postSim(t, oneShot(Config{RefuseProb: 1}), srv.URL)
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Class != ClassRefuse {
			t.Fatalf("err = %v, want refuse FaultError", err)
		}
		if hits.Load() != before {
			t.Error("refused exchange reached the backend")
		}
	})

	t.Run("e5xx and e429 are fabricated", func(t *testing.T) {
		before := hits.Load()
		resp, err := postSim(t, oneShot(Config{Err5xxProb: 1}), srv.URL)
		if err != nil || resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("got %v/%v, want synthetic 500", resp, err)
		}
		resp.Body.Close()
		resp, err = postSim(t, oneShot(Config{Err429Prob: 1}), srv.URL)
		if err != nil || resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("got %v/%v, want synthetic 429", resp, err)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("synthetic 429 missing Retry-After")
		}
		resp.Body.Close()
		if hits.Load() != before {
			t.Error("fabricated responses contacted the backend")
		}
	})

	t.Run("flip corrupts one byte, length preserved", func(t *testing.T) {
		resp, err := postSim(t, oneShot(Config{FlipProb: 1}), srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(body) != len(simBody) {
			t.Fatalf("flip changed length: %d != %d", len(body), len(simBody))
		}
		diff := 0
		for i := range body {
			if body[i] != simBody[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("flip changed %d bytes, want 1", diff)
		}
	})

	t.Run("dup doubles the body", func(t *testing.T) {
		resp, err := postSim(t, oneShot(Config{DupProb: 1}), srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != simBody+simBody {
			t.Errorf("dup body = %d bytes, want doubled original", len(body))
		}
	})

	t.Run("trunc surfaces unexpected EOF mid-read", func(t *testing.T) {
		resp, err := postSim(t, oneShot(Config{TruncateProb: 1}), srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !errors.Is(rerr, io.ErrUnexpectedEOF) {
			t.Fatalf("read err = %v, want unexpected EOF", rerr)
		}
		if len(body) >= len(simBody) {
			t.Error("trunc delivered the whole body")
		}
	})

	t.Run("reset surfaces a FaultError mid-read", func(t *testing.T) {
		resp, err := postSim(t, oneShot(Config{ResetProb: 1}), srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		var fe *FaultError
		if !errors.As(rerr, &fe) || fe.Class != ClassReset {
			t.Fatalf("read err = %v, want reset FaultError", rerr)
		}
	})

	t.Run("stall blocks until the context ends", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sim", strings.NewReader(`{}`))
		resp, err := oneShot(Config{StallProb: 1}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatal("stalled body read completed cleanly")
		}
		if time.Since(start) < 50*time.Millisecond {
			t.Error("stall returned before the context deadline")
		}
	})

	t.Run("latency delays but does not corrupt", func(t *testing.T) {
		hc := oneShot(Config{DialLatency: 30 * time.Millisecond, HeaderLatency: 30 * time.Millisecond})
		start := time.Now()
		resp, err := postSim(t, hc, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		_ = time.Since(start) // delays are uniform in [0,max): may be ~0
		if string(body) != simBody {
			t.Error("latency fault altered the body")
		}
	})
}

func newProxy(t *testing.T, backend string, cfg Config) (*httptest.Server, *Engine) {
	t.Helper()
	eng := NewEngine(cfg)
	srv := httptest.NewServer(NewProxy(backend, eng, nil))
	t.Cleanup(srv.Close)
	return srv, eng
}

func TestProxyTransparentWhenDisabled(t *testing.T) {
	srv, _ := newBackend(t)
	proxy, eng := newProxy(t, srv.URL, Config{})
	resp, err := postSim(t, http.DefaultClient, proxy.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != simBody {
		t.Error("disabled proxy altered the body")
	}
	if resp.Header.Get("X-Pcstall-Digest") == "" {
		t.Error("disabled proxy dropped the digest header")
	}
	if eng.Stats().Exchanges != 0 {
		t.Error("disabled proxy drew plans")
	}
}

func TestProxyFaultClasses(t *testing.T) {
	srv, hits := newBackend(t)

	t.Run("refuse severs without contacting the backend", func(t *testing.T) {
		proxy, _ := newProxy(t, srv.URL, Config{RefuseProb: 1})
		before := hits.Load()
		if _, err := postSim(t, http.DefaultClient, proxy.URL); err == nil {
			t.Fatal("refused exchange succeeded")
		}
		if hits.Load() != before {
			t.Error("refused exchange reached the backend")
		}
	})

	t.Run("e429 fabricated with Retry-After", func(t *testing.T) {
		proxy, _ := newProxy(t, srv.URL, Config{Err429Prob: 1})
		before := hits.Load()
		resp, err := postSim(t, http.DefaultClient, proxy.URL)
		if err != nil || resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("got %v/%v, want 429", resp, err)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 missing Retry-After")
		}
		resp.Body.Close()
		if hits.Load() != before {
			t.Error("fabricated 429 contacted the backend")
		}
	})

	t.Run("flip corrupts exactly one byte", func(t *testing.T) {
		proxy, _ := newProxy(t, srv.URL, Config{FlipProb: 1})
		resp, err := postSim(t, http.DefaultClient, proxy.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(body) != len(simBody) || string(body) == simBody {
			t.Errorf("flip body: len %d (want %d), changed=%v", len(body), len(simBody), string(body) != simBody)
		}
	})

	t.Run("dup doubles the body", func(t *testing.T) {
		proxy, _ := newProxy(t, srv.URL, Config{DupProb: 1})
		resp, err := postSim(t, http.DefaultClient, proxy.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != simBody+simBody {
			t.Errorf("dup delivered %d bytes, want doubled body", len(body))
		}
	})

	t.Run("trunc yields unexpected EOF", func(t *testing.T) {
		proxy, _ := newProxy(t, srv.URL, Config{TruncateProb: 1})
		resp, err := postSim(t, http.DefaultClient, proxy.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatal("truncated body read completed cleanly")
		}
	})

	t.Run("reset severs after backend answered", func(t *testing.T) {
		proxy, _ := newProxy(t, srv.URL, Config{ResetProb: 1})
		before := hits.Load()
		resp, err := postSim(t, http.DefaultClient, proxy.URL)
		if err == nil {
			_, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				t.Fatal("reset exchange delivered a full body")
			}
		}
		if hits.Load() != before+1 {
			t.Error("reset should fire after the backend answered")
		}
	})

	t.Run("stall bounded by client deadline", func(t *testing.T) {
		proxy, _ := newProxy(t, srv.URL, Config{StallProb: 1})
		hc := &http.Client{Timeout: 150 * time.Millisecond}
		resp, err := postSim(t, hc, proxy.URL)
		if err == nil {
			_, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				t.Fatal("stalled exchange delivered a full body")
			}
		}
	})

	t.Run("control plane passes clean and stats are served", func(t *testing.T) {
		proxy, eng := newProxy(t, srv.URL, Config{RefuseProb: 1})
		resp, err := http.Get(proxy.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz through hostile proxy: %v", err)
		}
		resp.Body.Close()
		if _, err := postSim(t, http.DefaultClient, proxy.URL); err == nil {
			t.Fatal("sim exchange survived refuse=1")
		}
		resp, err = http.Get(proxy.URL + StatsPath)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("stats decode: %v", err)
		}
		resp.Body.Close()
		if st != eng.Stats() || st.Refused != 1 {
			t.Errorf("served stats %+v, engine has %+v", st, eng.Stats())
		}
	})
}

// The two delivery vehicles must agree: same (seed, spec), same arrival
// order → the same class sequence observed end to end.
func TestTransportAndProxyShareSchedule(t *testing.T) {
	cfg := Config{FlipProb: 0.5, Seed: 123}
	a, b := NewEngine(cfg), NewEngine(cfg)
	for i := 0; i < 100; i++ {
		if pa, pb := a.Plan(), b.Plan(); pa != pb {
			t.Fatalf("exchange %d: transport plan %+v != proxy plan %+v", i, pa, pb)
		}
	}
}
