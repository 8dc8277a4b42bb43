package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"pcstall/internal/dvfs"
	"pcstall/internal/orchestrate"
	"pcstall/internal/telemetry"
	"pcstall/internal/tracing"
)

// Config shapes a Dispatcher.
type Config struct {
	// Backends are pcstall-serve base URLs; at least one is required.
	Backends []string
	// Window caps per-backend in-flight jobs (default 4). The live
	// window adapts beneath the cap: it grows one slot per completion
	// and is clamped by observed job latency, so a backend running 4×
	// slower than the fleet's fastest holds roughly a quarter the
	// in-flight work.
	Window int
	// LocalWorkers bounds the local fallback lane — the jobs executed
	// in-process when no backend is healthy (default runtime.NumCPU()).
	// The fleet may overlap far more jobs than this machine has cores;
	// the degraded lane must not.
	LocalWorkers int
	// SkipMismatched makes CheckVersions drop version-mismatched (or
	// unverifiable) backends from rotation instead of failing the
	// campaign. At least one backend must survive either way.
	SkipMismatched bool
	// Metrics, when non-nil, receives dist_* fleet telemetry.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, traces quarantine probes (the dispatch path
	// itself rides the campaign context's tracer) and lets probe requests
	// carry X-Pcstall-Trace to the backend.
	Tracer *tracing.Tracer
	// Log, when non-nil, receives structured fleet-health records
	// (quarantine, heal, drop, fallback) with their causes.
	Log *slog.Logger
	// HTTP overrides the backend client wholesale (nil builds
	// DefaultHTTPClient from the timeouts below).
	HTTP *http.Client
	// DialTimeout and HeaderTimeout shape the default transport's
	// per-attempt connect and response-header deadlines (zero selects
	// DefaultDialTimeout / DefaultHeaderTimeout). Ignored when HTTP is
	// set.
	DialTimeout   time.Duration
	HeaderTimeout time.Duration
	// BodyTimeout bounds reading one settled body (zero selects
	// DefaultBodyTimeout). Applied whether or not HTTP is set.
	BodyTimeout time.Duration
	// WrapTransport, when non-nil, wraps the backend client's transport
	// — the seam netchaos.NewTransport plugs into for in-process fault
	// injection without dist importing the injector.
	WrapTransport func(http.RoundTripper) http.RoundTripper
	// ProbeBackoff is the initial quarantine probe delay, doubling
	// (jittered via orchestrate.Jitter) up to MaxProbeBackoff — the same
	// discipline the orchestrator's job retries use. Defaults 250ms/15s.
	ProbeBackoff    time.Duration
	MaxProbeBackoff time.Duration
	// ProbeTimeout bounds one /healthz probe (default 2s).
	ProbeTimeout time.Duration
}

// backend is one worker's coordinator-side record. All mutable fields
// are guarded by Dispatcher.mu.
type backend struct {
	url    string
	name   string // metric-safe label
	client *Client

	healthy  bool
	dropped  bool // version/key skew: permanently out of rotation
	probing  bool
	inflight int
	window   int
	ewmaMs   float64
	cooldown time.Time // 429/503 Retry-After: no dispatch before this
}

// Dispatcher fans jobs out across the fleet. Safe for concurrent use;
// the orchestrator's worker pool drives Run from many goroutines.
type Dispatcher struct {
	cfg       Config
	ctx       context.Context
	cancel    context.CancelFunc
	tele      distTelemetry
	log       *slog.Logger
	localSem  chan struct{}
	maxWindow int
	probeWait time.Duration
	probeMax  time.Duration
	probeTO   time.Duration

	// Bound once (Bind) before the first Run:
	local  orchestrate.RunFunc
	cached func(key string) (*dvfs.Result, bool)

	mu       sync.Mutex
	backends []*backend
	waitCh   chan struct{}

	wg sync.WaitGroup // quarantine probe loops
}

// New builds a Dispatcher over the configured backends. Call
// CheckVersions before dispatching so a mixed-version fleet is rejected
// up front, and Close when the campaign ends.
func New(cfg Config) (*Dispatcher, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("dist: Config.Backends is required")
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.LocalWorkers <= 0 {
		cfg.LocalWorkers = runtime.NumCPU()
	}
	if cfg.ProbeBackoff <= 0 {
		cfg.ProbeBackoff = 250 * time.Millisecond
	}
	if cfg.MaxProbeBackoff <= 0 {
		cfg.MaxProbeBackoff = 15 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	// The dispatcher's own context (probe loops) carries the tracer so
	// quarantine probes trace even though they outlive any one campaign
	// context.
	ctx, cancel := context.WithCancel(tracing.WithTracer(context.Background(), cfg.Tracer))
	d := &Dispatcher{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		tele:      newDistTelemetry(cfg.Metrics),
		log:       cfg.Log,
		localSem:  make(chan struct{}, cfg.LocalWorkers),
		maxWindow: cfg.Window,
		probeWait: cfg.ProbeBackoff,
		probeMax:  cfg.MaxProbeBackoff,
		probeTO:   cfg.ProbeTimeout,
		waitCh:    make(chan struct{}),
	}
	hc := cfg.HTTP
	if hc == nil {
		hc = DefaultHTTPClient(cfg.DialTimeout, cfg.HeaderTimeout)
	}
	if cfg.WrapTransport != nil {
		// Wrap a shallow copy so a caller-owned client is not mutated.
		base := hc.Transport
		if base == nil {
			base = http.DefaultTransport
		}
		wrapped := *hc
		wrapped.Transport = cfg.WrapTransport(base)
		hc = &wrapped
	}
	seen := map[string]bool{}
	for _, u := range cfg.Backends {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		cl := NewClient(u, hc)
		cl.SetBodyBudget(cfg.BodyTimeout)
		d.backends = append(d.backends, &backend{
			url:     u,
			name:    metricName(u),
			client:  cl,
			healthy: true,
			window:  1, // trust is earned: windows grow with completions
		})
	}
	if len(d.backends) == 0 {
		return nil, fmt.Errorf("dist: no usable backend URLs in %v", cfg.Backends)
	}
	d.tele.healthy.Set(float64(len(d.backends)))
	return d, nil
}

// Bind attaches the campaign's in-process executor (the fallback lane)
// and its cache peek (the If-None-Match source) and returns the fleet
// RunFunc. Its shape matches exp.Config.RunVia, so wiring a campaign
// onto the fleet is one assignment:
//
//	cfg.RunVia = dispatcher.Bind
func (d *Dispatcher) Bind(local orchestrate.RunFunc, cached func(string) (*dvfs.Result, bool)) orchestrate.RunFunc {
	d.local = local
	d.cached = cached
	return d.Run
}

// Close stops the quarantine probes and releases the dispatcher. In-
// flight Run calls finish on their own contexts.
func (d *Dispatcher) Close() {
	d.cancel()
	d.wg.Wait()
}

// Healthy reports how many backends are currently in rotation.
func (d *Dispatcher) Healthy() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, b := range d.backends {
		if b.healthy && !b.dropped {
			n++
		}
	}
	return n
}

// CheckVersions admits the fleet: every backend's sim_version must equal
// this binary's orchestrate.SimVersion. A mismatched — or unverifiable —
// backend either fails the campaign (default; mixed-version fleets must
// never pollute the content-addressed cache) or, with SkipMismatched, is
// dropped from rotation and never receives a job. At least one backend
// must survive.
func (d *Dispatcher) CheckVersions(ctx context.Context) error {
	d.mu.Lock()
	backends := append([]*backend(nil), d.backends...)
	d.mu.Unlock()
	live := 0
	for _, b := range backends {
		v, err := b.client.SimVersion(ctx)
		if err == nil && v == orchestrate.SimVersion {
			live++
			continue
		}
		if err == nil {
			err = fmt.Errorf("dist: %s runs sim version %q, coordinator runs %q", b.url, v, orchestrate.SimVersion)
		}
		if !d.cfg.SkipMismatched {
			return fmt.Errorf("version fail-safe: %w (use -skip-version-mismatch to drop such backends instead)", err)
		}
		d.drop(b, err)
	}
	if live == 0 {
		return fmt.Errorf("dist: version fail-safe left no usable backends (of %d)", len(backends))
	}
	return nil
}

// Run executes one job on the fleet: acquire a slot on the best healthy
// backend, dispatch, and on backend failure let a healthy peer steal the
// job — or, when the whole fleet is quarantined, fall back to the local
// lane. It is an orchestrate.RunFunc: campaign cancellation propagates
// through ctx, and result provenance is recorded on the manifest via
// orchestrate.SetJobSource.
func (d *Dispatcher) Run(ctx context.Context, j orchestrate.Job, reg *telemetry.Registry) (*dvfs.Result, error) {
	key := j.Key()
	// The dispatch span is a child of orchestrate.job (the campaign
	// context carries it); its Inject'd identity is what stitches the
	// backend's serve-side spans into the same trace.
	ctx, dspan := tracing.Start(ctx, "dist.dispatch", tracing.String("job.key", key))
	defer dspan.End()
	dispatches := 0
	useINM := true
	for {
		b, err := d.acquire(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			// The whole fleet is out: degrade to the in-process
			// orchestrator rather than failing the campaign.
			dspan.Event("fallback")
			return d.runLocal(ctx, j, reg)
		}
		if dispatches > 0 {
			d.tele.stole(b)
			dspan.Event("steal", tracing.String("backend", b.url))
		}
		dispatches++
		dspan.SetAttr("backend", b.url)
		// On a re-dispatch, a previously ingested body need not be
		// re-downloaded: If-None-Match with the job-key ETag lets the
		// backend answer 304.
		have := false
		if useINM && dispatches > 1 && d.cached != nil {
			_, have = d.cached(key)
		}
		start := time.Now()
		res, notMod, rerr := b.client.Sim(ctx, j, have)
		lat := time.Since(start)
		d.tele.remote.Observe(lat.Seconds())
		if rerr == nil {
			d.release(b, lat, true)
			if notMod {
				d.tele.etag(b)
				dspan.Event("etag.304", tracing.String("backend", b.url))
				if r, ok := d.cached(key); ok {
					orchestrate.SetJobSource(ctx, "remote:"+b.url)
					return r, nil
				}
				// The local copy vanished between the header and the
				// reply (should not happen — the result cache never
				// evicts). Re-dispatch without the validator.
				useINM = false
				continue
			}
			d.tele.perBackend(b, "dispatched", "jobs settled")
			orchestrate.SetJobSource(ctx, "remote:"+b.url)
			return res, nil
		}
		// The job failed on this backend. Campaign cancellation is the
		// caller's signal, not the backend's fault; everything else
		// sidelines the backend and lets a peer steal the job.
		if ctx.Err() != nil {
			d.release(b, lat, false)
			return nil, ctx.Err()
		}
		var shed *ShedError
		var skew *SkewError
		var integ *IntegrityError
		var tmo *TimeoutError
		switch {
		case errors.As(rerr, &shed):
			// Not a fault: the backend is loaded (429) or draining
			// (503). Honor Retry-After as a dispatch cooldown.
			orchestrate.AddJobFault(ctx, "shed:"+b.url)
			dspan.Event("cooldown",
				tracing.String("backend", b.url),
				tracing.String("retry_after", shed.RetryAfter.String()))
			d.cooldownBackend(b, shed.RetryAfter)
		case errors.As(rerr, &skew):
			// Its results are unusable under our keys; out for good.
			orchestrate.AddJobFault(ctx, "skew:"+b.url)
			d.release(b, lat, false)
			d.drop(b, rerr)
		case errors.As(rerr, &integ):
			// The wire corrupted the reply; the result was never
			// ingested. The backend itself may be fine, but a path that
			// corrupts once will corrupt again — quarantine and let a
			// peer re-steal the job.
			orchestrate.AddJobFault(ctx, "integrity:"+b.url)
			d.tele.integrityFault(b)
			d.release(b, lat, false)
			d.quarantine(b, rerr)
		case errors.As(rerr, &tmo):
			// A transport deadline fired: black-holed dial, headers, or
			// body. Bounded by construction — this is the invariant that
			// campaigns never hang.
			orchestrate.AddJobFault(ctx, "timeout:"+b.url)
			d.tele.timeoutFault(b)
			d.release(b, lat, false)
			d.quarantine(b, rerr)
		default:
			orchestrate.AddJobFault(ctx, "error:"+b.url)
			d.release(b, lat, false)
			d.quarantine(b, rerr)
		}
		d.tele.requeued(b)
		dspan.Event("requeue",
			tracing.String("backend", b.url),
			tracing.String("error", rerr.Error()))
	}
}

// runLocal executes the job in-process on the bounded fallback lane.
func (d *Dispatcher) runLocal(ctx context.Context, j orchestrate.Job, reg *telemetry.Registry) (*dvfs.Result, error) {
	if d.local == nil {
		return nil, fmt.Errorf("dist: no healthy backends and no local executor bound")
	}
	d.tele.fallbacks.Inc()
	if d.log != nil {
		d.log.Debug("running job on local fallback lane",
			"job", j.String(), "trace_id", tracing.TraceIDFrom(ctx))
	}
	select {
	case d.localSem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-d.localSem }()
	orchestrate.SetJobSource(ctx, "local-fallback")
	return d.local(ctx, j, reg)
}

// acquire blocks until some healthy backend has a free window slot and
// claims it, preferring the emptiest window and, on ties, the fastest
// backend. It returns (nil, nil) when no backend is in rotation at all —
// the caller's cue to use the local lane — and ctx.Err() on campaign
// cancellation.
func (d *Dispatcher) acquire(ctx context.Context) (*backend, error) {
	d.mu.Lock()
	for {
		var best *backend
		var bestScore float64
		anyLive := false
		var nextWake time.Time
		now := time.Now()
		for _, b := range d.backends {
			if b.dropped || !b.healthy {
				continue
			}
			anyLive = true
			if now.Before(b.cooldown) {
				if nextWake.IsZero() || b.cooldown.Before(nextWake) {
					nextWake = b.cooldown
				}
				continue
			}
			if b.inflight >= b.window {
				continue
			}
			score := float64(b.inflight) / float64(b.window)
			if best == nil || score < bestScore ||
				(score == bestScore && b.ewmaMs < best.ewmaMs) {
				best, bestScore = b, score
			}
		}
		if best != nil {
			best.inflight++
			d.mu.Unlock()
			return best, nil
		}
		if !anyLive {
			d.mu.Unlock()
			return nil, nil
		}
		// Every live backend is full or cooling: wait for a slot to
		// free, a quarantine to heal, the earliest cooldown to lapse, or
		// the campaign to end.
		ch := d.waitCh
		d.mu.Unlock()
		var timer *time.Timer
		var fire <-chan time.Time
		if !nextWake.IsZero() {
			timer = time.NewTimer(time.Until(nextWake) + time.Millisecond)
			fire = timer.C
		}
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return nil, ctx.Err()
		case <-ch:
		case <-fire:
		}
		if timer != nil {
			timer.Stop()
		}
		d.mu.Lock()
	}
}

// release returns a slot and, on success, folds the observed latency
// into the backend's window sizing. Callers must not hold d.mu.
func (d *Dispatcher) release(b *backend, lat time.Duration, ok bool) {
	d.mu.Lock()
	b.inflight--
	if ok {
		ms := float64(lat) / float64(time.Millisecond)
		if b.ewmaMs == 0 {
			b.ewmaMs = ms
		} else {
			b.ewmaMs = 0.7*b.ewmaMs + 0.3*ms
		}
		if b.window < d.maxWindow {
			b.window++ // additive growth toward the cap
		}
		d.resizeWindowsLocked()
	}
	d.broadcastLocked()
	d.mu.Unlock()
}

// resizeWindowsLocked clamps every healthy backend's window by its
// latency relative to the fleet's fastest: window_b ≤ max(1,
// round(maxWindow · min/ewma_b)). The fastest backend may fill the
// whole cap; one 4× slower is held to about a quarter of it, keeping
// slow workers from hoarding jobs the fast ones would finish sooner.
// Callers hold d.mu.
func (d *Dispatcher) resizeWindowsLocked() {
	minEwma := 0.0
	for _, b := range d.backends {
		if b.dropped || !b.healthy || b.ewmaMs == 0 {
			continue
		}
		if minEwma == 0 || b.ewmaMs < minEwma {
			minEwma = b.ewmaMs
		}
	}
	if minEwma == 0 {
		return
	}
	for _, b := range d.backends {
		if b.dropped || !b.healthy || b.ewmaMs == 0 {
			continue
		}
		cap := int(float64(d.maxWindow)*minEwma/b.ewmaMs + 0.5)
		if cap < 1 {
			cap = 1
		}
		if b.window > cap {
			b.window = cap
		}
	}
}

// cooldownBackend releases the slot and holds the backend out of
// dispatch until its Retry-After lapses. A shed is load signaling, not
// failure: no quarantine, no probe, no trust reset.
func (d *Dispatcher) cooldownBackend(b *backend, wait time.Duration) {
	d.mu.Lock()
	b.inflight--
	until := time.Now().Add(wait)
	if until.After(b.cooldown) {
		b.cooldown = until
	}
	d.broadcastLocked()
	d.mu.Unlock()
}

// quarantine takes a faulted backend out of rotation and starts its
// probe loop: exponential, jittered backoff between /healthz checks
// until the backend answers 200 again.
func (d *Dispatcher) quarantine(b *backend, cause error) {
	d.mu.Lock()
	if b.dropped || !b.healthy {
		d.mu.Unlock()
		return
	}
	b.healthy = false
	b.window = 1 // trust resets; rebuilt by completions after healing
	b.ewmaMs = 0
	startProbe := !b.probing
	if startProbe {
		b.probing = true
		d.wg.Add(1)
	}
	d.broadcastLocked() // waiters re-plan (maybe onto the local lane)
	healthy := d.healthyLocked()
	d.mu.Unlock()
	d.tele.quarantined(b, healthy)
	if d.log != nil {
		d.log.Warn("backend quarantined",
			"backend", b.url, "healthy", healthy, "cause", cause.Error())
	}
	if startProbe {
		go d.probeLoop(b)
	}
}

// drop removes a backend from rotation permanently (version or key
// skew). No probe can bring it back this campaign.
func (d *Dispatcher) drop(b *backend, cause error) {
	d.mu.Lock()
	if b.dropped {
		d.mu.Unlock()
		return
	}
	b.dropped = true
	b.healthy = false
	d.broadcastLocked()
	healthy := d.healthyLocked()
	d.mu.Unlock()
	d.tele.droppedBackend(b, healthy)
	if d.log != nil {
		d.log.Warn("backend dropped from rotation",
			"backend", b.url, "healthy", healthy, "cause", cause.Error())
	}
}

// probeLoop waits out the quarantine: jittered doubling backoff, then a
// bounded /healthz probe; 200 returns the backend to rotation with a
// reset one-slot window.
func (d *Dispatcher) probeLoop(b *backend) {
	defer d.wg.Done()
	backoff := d.probeWait
	for {
		select {
		case <-d.ctx.Done():
			d.mu.Lock()
			b.probing = false
			d.mu.Unlock()
			return
		case <-time.After(orchestrate.Jitter(backoff)):
		}
		pctx, cancel := context.WithTimeout(d.ctx, d.probeTO)
		pctx, pspan := tracing.Start(pctx, "dist.probe", tracing.String("backend", b.url))
		err := b.client.Healthz(pctx)
		pspan.SetAttr("ok", fmt.Sprint(err == nil))
		pspan.End()
		cancel()
		if err == nil {
			d.mu.Lock()
			b.healthy = true
			b.probing = false
			b.window = 1
			b.cooldown = time.Time{}
			d.broadcastLocked()
			healthy := d.healthyLocked()
			d.mu.Unlock()
			d.tele.healed(b, healthy)
			if d.log != nil {
				d.log.Info("backend healed", "backend", b.url, "healthy", healthy)
			}
			return
		}
		if backoff *= 2; backoff > d.probeMax {
			backoff = d.probeMax
		}
	}
}

// healthyLocked counts in-rotation backends; callers hold d.mu.
func (d *Dispatcher) healthyLocked() int {
	n := 0
	for _, b := range d.backends {
		if b.healthy && !b.dropped {
			n++
		}
	}
	return n
}

// broadcastLocked wakes every acquire waiter; callers hold d.mu.
func (d *Dispatcher) broadcastLocked() {
	close(d.waitCh)
	d.waitCh = make(chan struct{})
}
