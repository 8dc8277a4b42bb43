package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
	"pcstall/internal/serve"
	"pcstall/internal/wire"
)

// Traffic shapes. Rates sit well below saturation on a two-core machine,
// so the open loop measures service time, not an ever-growing queue.
const (
	coldRate = 40.0 // sim-cold arrivals per second
	hotRate  = 50.0 // sim-hot arrivals per second
	// hotPool is how many configs sim-hot settles during set-up.
	hotPool = 8
	// hotWindow: every hotWindow-th sim-hot arrival opens a fresh config,
	// and the arrival after it collides on that config.
	hotWindow = 32
	// hotReplay is the share of pool requests that carry If-None-Match.
	hotReplay = 0.5
	// clientConns bounds the load generator's connections to the server.
	clientConns = 2
	// requestTimeout bounds one request; a timeout is a failure.
	requestTimeout = 30 * time.Second
)

// simDesign is the policy every served config runs: PCSTALL needs no
// oracle truth, so the simulator does all the work.
const simDesign = "PCSTALL"

// simServer is one fresh in-process pcstall-serve stack on loopback.
type simServer struct {
	suite *exp.Suite
	srv   *serve.Server
	hs    *http.Server
	base  string
	done  chan error
}

func newSimServer(l *layers) (*simServer, error) {
	suite := exp.NewSuite(exp.Config{
		CUs:     servePlatform.cus,
		Scale:   servePlatform.scale,
		Seed:    1,
		Apps:    servePlatform.apps,
		Workers: workers,
		NoCache: true,
		RunVia:  l.runVia(servePlatform.cus),
	})
	srv, err := serve.New(serve.Config{
		Backend:  l.backend(suite),
		Defaults: suite.SimDefaults(),
		Workers:  workers,
	})
	if err != nil {
		suite.Close()
		return nil, err
	}
	return listen(suite, srv, l)
}

// listen serves srv on a loopback port.
func listen(suite *exp.Suite, srv *serve.Server, l *layers) (*simServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		suite.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &simServer{
		suite: suite,
		srv:   srv,
		hs:    &http.Server{Handler: l.handler(srv.Handler()), ReadHeaderTimeout: 10 * time.Second},
		base:  "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the server, stops its listener, waits for it to return,
// and closes the suite.
func (s *simServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	derr := s.srv.Drain(ctx)
	serr := s.hs.Shutdown(ctx)
	if serr != nil {
		_ = s.hs.Close()
	}
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	return errors.Join(derr, serr, s.suite.Close())
}

// key is the content-addressed job key the server computes for a sparse
// {app, design, seed} request.
func (s *simServer) key(app string, seed uint64) orchestrate.Job {
	j := s.suite.SimDefaults()
	j.App, j.Design, j.Seed = app, simDesign, seed
	j.SimVersion = orchestrate.SimVersion
	return j
}

func simBody(app string, seed uint64) string {
	return fmt.Sprintf(`{"app":%q,"design":%q,"seed":%d}`, app, simDesign, seed)
}

// arrival is one scheduled request of an open-loop run.
type arrival struct {
	at    time.Duration // scheduled send time after the run starts
	app   string
	seed  uint64
	class string // cold, collide, hot, setup
	inm   bool   // carry If-None-Match for the config's job key
	// key is the job key the server computes for the config.
	key string
}

// schedule draws n arrival times over [0, span) as sorted uniforms: a
// Poisson process conditioned on n arrivals, so every run offers exactly
// n requests at the same mean rate.
func schedule(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
	return at
}

// reply is what the load generator saw for one arrival.
type reply struct {
	code   int
	body   []byte
	digest string
	etag   string
	err    error
	lat    time.Duration // from the scheduled send time to the last body byte
	lag    time.Duration // how late the generator sent it
	doneAt time.Duration // completion time after the run starts
}

// drive sends every arrival at its scheduled time over at most
// clientConns connections, waits for every reply, and returns them in
// arrival order.
func drive(base string, sched []arrival) []reply {
	cl := newClient()
	defer cl.CloseIdleConnections()
	out := make([]reply, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range sched {
		if d := sched[i].at - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(t0) - sched[i].at
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := send(cl, base, sched[i])
			r.lag = lag
			r.doneAt = time.Since(t0)
			r.lat = r.doneAt - sched[i].at
			out[i] = r
		}(i)
	}
	wg.Wait()
	return out
}

// newClient returns a client that holds at most clientConns connections.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true},
		Timeout:   requestTimeout,
	}
}

func send(cl *http.Client, base string, a arrival) reply {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sim", strings.NewReader(simBody(a.app, a.seed)))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(classHeader, a.class)
	if a.inm {
		// The server's ETag is the job key.
		req.Header.Set("If-None-Match", `"`+a.key+`"`)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{
		code:   resp.StatusCode,
		body:   body,
		digest: resp.Header.Get(wire.DigestHeader),
		etag:   strings.Trim(resp.Header.Get("ETag"), `"`),
		err:    err,
	}
}

// verify checks one reply against the job key it must carry. It returns
// whether the reply is good, and a non-empty problem when an output
// check failed (a shed or transport error is a failure, not a check).
func verify(a arrival, r reply) (good bool, problem string) {
	key := a.key
	switch {
	case r.err != nil:
		return false, ""
	case r.code == http.StatusOK:
		if r.digest == "" {
			return false, fmt.Sprintf("%s seed %d: 200 without %s", a.app, a.seed, wire.DigestHeader)
		}
		if want, ok := wire.Check(r.digest, r.body); !ok {
			return false, fmt.Sprintf("%s seed %d: digest %s, body hashes to %s", a.app, a.seed, r.digest, want)
		}
		if r.etag != key {
			return false, fmt.Sprintf("%s seed %d: ETag %q, want job key %q", a.app, a.seed, r.etag, key)
		}
		return true, ""
	case r.code == http.StatusNotModified:
		if !a.inm || r.etag != key {
			return false, fmt.Sprintf("%s seed %d: unexpected 304 with ETag %q", a.app, a.seed, r.etag)
		}
		return true, ""
	}
	return false, ""
}

// runSimCold offers open-loop traffic in which every request is a
// distinct PCSTALL config: every request is a cold simulation.
func runSimCold(o options, l *layers) (*outcome, error) {
	rng := rand.New(rand.NewPCG(o.seed, 0xc01d))
	out := &outcome{}
	s, err := setupServers(out, l, func() (*simServer, error) { return newSimServer(l) })
	if err != nil {
		return nil, err
	}
	defer s.close()

	n := int(coldRate * o.seconds)
	span := time.Duration(o.seconds * float64(time.Second))
	seen := map[uint64]bool{}
	sched := make([]arrival, 0, n)
	for _, at := range schedule(rng, n, span) {
		a := arrival{at: at, app: servePlatform.apps[rng.IntN(len(servePlatform.apps))], class: "cold"}
		a.seed = rng.Uint64()
		for seen[a.seed] {
			a.seed = rng.Uint64()
		}
		seen[a.seed] = true
		sched = append(sched, a)
	}
	spot := rng.IntN(len(sched))
	replies := trafficRun(out, s, sched)

	// Spot check: one served result must equal an in-process run of the
	// same config on a fresh, untraced suite.
	if r := replies[spot]; r.code == http.StatusOK {
		if err := spotCheck(s.key(sched[spot].app, sched[spot].seed), r.body); err != nil {
			out.checkf("spot check: %v", err)
		}
	} else {
		out.checkf("spot check: request %d answered %d", spot, r.code)
	}
	l.pool(s.suite.Stats(), out.campaign, workers)
	if err := l.timeHits(s.suite.RunSim, settledJobs(s, sched, replies)); err != nil {
		return nil, err
	}
	out.rssMB = maxRSSMB()
	return out, nil
}

// runSimHot offers open-loop traffic over a pool of configs settled
// during set-up, half of them replaying If-None-Match, with a fresh
// config every hotWindow arrivals that the next arrival collides on.
func runSimHot(o options, l *layers) (*outcome, error) {
	rng := rand.New(rand.NewPCG(o.seed, 0x407))
	pool := make([]arrival, hotPool)
	for i := range pool {
		pool[i] = arrival{app: servePlatform.apps[i%len(servePlatform.apps)], seed: rng.Uint64(), class: "setup"}
	}
	out := &outcome{}
	poolBodies := make([][]byte, hotPool)
	s, err := setupServers(out, l, func() (*simServer, error) {
		s, err := newSimServer(l)
		if err != nil {
			return nil, err
		}
		cl := newClient()
		defer cl.CloseIdleConnections()
		for i := range pool {
			pool[i].key = s.key(pool[i].app, pool[i].seed).Key()
			r := send(cl, s.base, pool[i])
			if r.err != nil || r.code != http.StatusOK {
				s.close()
				return nil, fmt.Errorf("settling pool config %d: status %d: %v", i, r.code, r.err)
			}
			if _, problem := verify(pool[i], r); problem != "" {
				s.close()
				return nil, fmt.Errorf("settling pool config %d: %s", i, problem)
			}
			poolBodies[i] = r.body
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	n := int(hotRate * o.seconds)
	span := time.Duration(o.seconds * float64(time.Second))
	sched := make([]arrival, 0, n)
	poolIdx := make([]int, n)
	var fresh arrival
	for i, at := range schedule(rng, n, span) {
		var a arrival
		switch i % hotWindow {
		case 0:
			fresh = arrival{app: servePlatform.apps[rng.IntN(len(servePlatform.apps))], seed: rng.Uint64(), class: "cold"}
			a = fresh
		case 1:
			a = fresh
			a.class = "collide"
		default:
			p := rng.IntN(hotPool)
			a = pool[p]
			a.class, a.inm = "hot", rng.Float64() < hotReplay
			poolIdx[i] = p
		}
		a.at = at
		sched = append(sched, a)
	}
	replies := trafficRun(out, s, sched)

	// Pool bodies must equal their set-up bytes; a fresh config's two
	// bodies must equal each other.
	freshBody := map[string][]byte{}
	for i, a := range sched {
		r := replies[i]
		if r.code != http.StatusOK {
			continue
		}
		switch a.class {
		case "hot":
			if !bytes.Equal(r.body, poolBodies[poolIdx[i]]) {
				out.checkf("hot request %d: body differs from its set-up bytes", i)
			}
		default:
			k := a.app + "/" + fmt.Sprint(a.seed)
			if prev, ok := freshBody[k]; ok && !bytes.Equal(prev, r.body) {
				out.checkf("request %d: colliding bodies differ", i)
			}
			freshBody[k] = r.body
		}
	}
	l.pool(s.suite.Stats(), out.campaign, workers)
	if err := l.timeHits(s.suite.RunSim, settledJobs(s, sched, replies)); err != nil {
		return nil, err
	}
	out.rssMB = maxRSSMB()
	return out, nil
}

// setupServers builds the serving stack repeatedly (repeatSetup), timing
// each build, and keeps the last one. The traced records restart with
// each build.
func setupServers(out *outcome, l *layers, build func() (*simServer, error)) (*simServer, error) {
	var s *simServer
	err := repeatSetup(out,
		func() (err error) { s, err = build(); return err },
		func() error { err := s.close(); l.reset(); return err })
	return s, err
}

// trafficRun computes every arrival's job key, drives the schedule, and
// verifies and accounts every reply on out.
func trafficRun(out *outcome, s *simServer, sched []arrival) []reply {
	for i, a := range sched {
		sched[i].key = s.key(a.app, a.seed).Key()
	}
	replies := drive(s.base, sched)
	for i, r := range replies {
		out.attempted++
		out.lags = append(out.lags, r.lag)
		if r.doneAt > out.campaign {
			out.campaign = r.doneAt
		}
		good, problem := verify(sched[i], r)
		if problem != "" {
			out.checkf("request %d: %s", i, problem)
		}
		if !good {
			out.failed++
			continue
		}
		out.good++
		out.latencies = append(out.latencies, r.lat)
		if sched[i].class == "cold" {
			out.coldLatencies = append(out.coldLatencies, r.lat)
		}
	}
	return replies
}

// settledJobs lists the jobs of successful cold replies (at most 64).
func settledJobs(s *simServer, sched []arrival, replies []reply) []orchestrate.Job {
	var jobs []orchestrate.Job
	for i, a := range sched {
		if a.class == "cold" && replies[i].code == http.StatusOK && len(jobs) < 64 {
			jobs = append(jobs, s.key(a.app, a.seed))
		}
	}
	return jobs
}

// spotCheck compares a served body's result with Suite.RunSim of the
// same job on a fresh, untraced suite.
func spotCheck(j orchestrate.Job, body []byte) error {
	var served struct {
		Result *dvfs.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &served); err != nil || served.Result == nil {
		return fmt.Errorf("decoding served result: %v", err)
	}
	suite := exp.NewSuite(exp.Config{
		CUs: servePlatform.cus, Scale: servePlatform.scale, Seed: 1,
		Apps: servePlatform.apps, Workers: 1, NoCache: true,
	})
	defer suite.Close()
	res, err := suite.RunSim(context.Background(), j)
	if err != nil {
		return fmt.Errorf("in-process run: %w", err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	got, err := json.Marshal(served.Result)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served result for %s differs from the in-process run", j)
	}
	return nil
}
