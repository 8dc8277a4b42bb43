// Package serve is the simulation-as-a-service layer: a stdlib-only
// HTTP front end over the experiment suite and its orchestrator, built
// for sustained traffic rather than one-shot campaigns.
//
// The serving core applies four disciplines in order on every request:
//
//  1. Hot tier — a bounded in-memory LRU of fully rendered response
//     bodies keyed by the content-addressed job key. A hit returns the
//     exact bytes (and wire digest) of a previous settlement without
//     touching the result cache or re-rendering JSON.
//  2. Cache short-circuit — a request whose content-addressed job key
//     (orchestrate.Job.Key, SimVersion included) is already settled in
//     the orchestrator's memo or disk cache is answered immediately,
//     consuming neither queue capacity nor a worker slot; the rendered
//     body is promoted into the hot tier.
//  3. Singleflight — N identical concurrent requests collapse onto one
//     job: the first admission computes, the rest attach as waiters and
//     receive the identical rendered bytes when it settles.
//  4. Admission control — genuinely new work enters a bounded per-class
//     queue: cold simulations and figure regenerations each have their
//     own lane, so a flood of expensive cold sims can never shed a
//     figure request (or vice versa). When a lane's queued+running
//     reaches its bound, requests are shed with 429 and a Retry-After
//     estimated from that lane's observed job times, instead of
//     queueing unboundedly.
//
// Per-request deadlines and client disconnects propagate through the
// job's context down to the simulation's per-epoch cancellation checks
// (dvfs.RunConfig.Ctx), so abandoned work winds down at the next epoch
// boundary. Drain reuses the campaign shutdown discipline: stop
// admitting, finish or cancel in-flight jobs, and leave the caller to
// flush cache and manifest.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
	"pcstall/internal/telemetry"
	"pcstall/internal/tracing"
	"pcstall/internal/version"
	"pcstall/internal/wire"
	"pcstall/internal/workload"
)

// maxSimRequestBytes caps a POST /v1/sim body. Sim configs are sparse
// JSON well under a kilobyte; anything bigger is a mistake or an attack.
const maxSimRequestBytes = 1 << 20

// Backend is what the serving layer fronts. *exp.Suite implements it;
// tests substitute stubs to exercise admission, singleflight, and
// cancellation without running simulations.
type Backend interface {
	// RunSim executes one simulation job under ctx. Safe for concurrent
	// use.
	RunSim(ctx context.Context, j orchestrate.Job) (*dvfs.Result, error)
	// Cached peeks for a settled result without scheduling work.
	Cached(key string) (*dvfs.Result, bool)
	// Figure regenerates one artifact under ctx. NOT safe for
	// concurrent use; the server serializes figure jobs.
	Figure(ctx context.Context, id string) (*exp.Table, error)
	// Stats snapshots orchestration progress for SSE and Retry-After.
	Stats() orchestrate.Stats
}

var _ Backend = (*exp.Suite)(nil)

// Config shapes a Server.
type Config struct {
	// Backend fronts the simulations; required.
	Backend Backend
	// Defaults fills unset SimRequest fields (exp.Suite.SimDefaults for
	// suite-backed servers). Its SimVersion is overwritten with the
	// binary's own.
	Defaults orchestrate.Job
	// MaxQueue bounds admitted-but-unsettled simulation jobs (queued +
	// running) on the cold-sim lane; beyond it requests shed with 429.
	// <= 0 selects 64.
	MaxQueue int
	// FigureQueue bounds admitted-but-unsettled figure jobs on their own
	// admission lane, so a backlog of expensive cold sims never sheds a
	// figure request (and a figure backlog never sheds sims). 0 selects
	// 16; negative is an error.
	FigureQueue int
	// BodyCacheBytes bounds the in-memory LRU of rendered response
	// bodies (the hot tier above the JSONL result cache). 0 selects
	// 32 MiB; negative is an error.
	BodyCacheBytes int64
	// Workers bounds concurrently executing jobs; <= 0 selects
	// runtime.NumCPU(). (Simulations are additionally bounded by the
	// orchestrator's own pool.)
	Workers int
	// FigureIDs lists the artifact ids POST /v1/figures/{id} accepts
	// (exp.Suite.ArtifactIDs for suite-backed servers).
	FigureIDs []string
	// Metrics, when non-nil, receives serve_* metrics and is expected
	// to be the same registry the backend records into.
	Metrics *telemetry.Registry
	// BaseCtx is the server's lifetime context; every job derives from
	// it. Nil means Background.
	BaseCtx context.Context
	// DefaultTimeout bounds jobs whose request carries no timeout_ms
	// (0 = none). MaxTimeout caps client-requested timeouts; 0 leaves
	// them uncapped.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// ProgressEvery is the SSE progress cadence (default 500ms).
	ProgressEvery time.Duration
	// Version is stamped on every response (default version.String()).
	Version string
	// Tracer, when non-nil, records a distributed span per request and
	// per job, joining traces propagated by coordinators via the
	// X-Pcstall-Trace header, and mounts /debug/traces on the mux.
	Tracer *tracing.Tracer
	// Log, when non-nil, receives structured request and job-settlement
	// logs correlated by trace ID. Health probes log at Debug.
	Log *slog.Logger
}

// job states; stored as strings because they render into responses.
const (
	statusQueued    = "queued"
	statusRunning   = "running"
	statusDone      = "done"
	statusError     = "error"
	statusCancelled = "cancelled"
)

// job kinds and the admission-lane classes they map to. The class
// strings label the per-lane serve_* metric series and the /healthz
// queue map; "cached" requests (hot-tier and result-cache hits) never
// enter a lane at all.
const (
	kindSim    = "sim"
	kindFigure = "figure"

	classCold   = "cold"
	classFigure = "figure"
)

// Defaults for the zero Config: the figure lane's bound, and the hot
// tier's byte budget (a few thousand typical rendered sim bodies).
const (
	defaultFigureQueue          = 16
	defaultBodyCacheBytes int64 = 32 << 20
)

// runFn computes one admitted job and returns its rendered settlement:
// an HTTP status code plus the exact response body every attached
// waiter receives.
type runFn func(ctx context.Context) (int, []byte)

// lane is one admission class's queue accounting: cold simulations and
// figure regenerations each get a lane so neither sheds behind the
// other's backlog. class and max are immutable after New; the counters
// are guarded by Server.mu.
type lane struct {
	class string // metric label: "cold" or "figure"
	max   int    // admitted-but-unsettled bound; beyond it requests shed

	inflight int // admitted, not yet settled
	running  int // holding a worker slot now

	// Settled-OK run durations, for the lane's Retry-After estimate.
	durSum time.Duration
	durN   int64

	// The lane's class-labelled series (see newLane).
	depthGauge, runningGauge *telemetry.Gauge
	shed                     *telemetry.Counter
}

// job is one unit of admitted (or cache-settled) work, shared by every
// request that deduplicated onto it.
type job struct {
	id   string
	kind string // "sim" | "figure"
	lane *lane  // admission lane charged for this job (nil if cache-settled)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on settle, after body/code are set

	// Guarded by Server.mu:
	status   string
	refs     int  // attached waiters; 0 with detached=false cancels
	detached bool // async jobs run to completion regardless of waiters
	settled  bool
	startRun time.Time // when the job acquired its worker slot

	// Written once in settle (before close(done)), read-only after:
	httpStatus int
	body       []byte
	digest     string // wire.Digest over body ("" = compute on write)

	// Written once in admit (before the job is published), read-only
	// after; both are nil/empty when the server runs untraced.
	span    *tracing.Span
	traceID string
}

// Server is the serving core. Create with New; it is safe for
// concurrent use by the HTTP stack.
type Server struct {
	cfg       Config
	defaults  orchestrate.Job
	ver       string
	baseCtx   context.Context
	tele      *serveTelemetry
	tracer    *tracing.Tracer
	log       *slog.Logger
	mux       *http.ServeMux
	sem       chan struct{}
	figureSem chan struct{} // single-slot execution lane: Backend.Figure is not concurrent-safe
	figureIDs map[string]bool
	bodies    *bodyCache // hot tier of rendered bodies

	// The two admission lanes: cold simulations and figure regenerations.
	cold, figure lane

	workloads   []string
	workloadSet map[string]bool

	mu        sync.Mutex
	jobs      map[string]*job
	doneOrder []string // settled job ids, oldest first, for eviction
	draining  bool

	wg sync.WaitGroup // one per admitted job goroutine
}

// maxSettledJobs bounds how many settled jobs stay pollable before the
// oldest are evicted.
const maxSettledJobs = 4096

// New builds a Server and its route table.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: Config.Backend is required")
	}
	if cfg.FigureQueue < 0 {
		return nil, fmt.Errorf("serve: Config.FigureQueue is %d; want 0 (default %d) or a positive bound", cfg.FigureQueue, defaultFigureQueue)
	}
	if cfg.BodyCacheBytes < 0 {
		return nil, fmt.Errorf("serve: Config.BodyCacheBytes is %d; want 0 (default %d) or a positive budget", cfg.BodyCacheBytes, defaultBodyCacheBytes)
	}
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 64
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	ver := cfg.Version
	if ver == "" {
		ver = version.String()
	}
	baseCtx := cfg.BaseCtx
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 500 * time.Millisecond
	}
	figQueue := cfg.FigureQueue
	if figQueue == 0 {
		figQueue = defaultFigureQueue
	}
	bodyBytes := cfg.BodyCacheBytes
	if bodyBytes == 0 {
		bodyBytes = defaultBodyCacheBytes
	}
	s := &Server{
		cfg:         cfg,
		defaults:    cfg.Defaults,
		ver:         ver,
		baseCtx:     baseCtx,
		tele:        newServeTelemetry(cfg.Metrics),
		tracer:      cfg.Tracer,
		log:         cfg.Log,
		sem:         make(chan struct{}, workers),
		figureSem:   make(chan struct{}, 1),
		figureIDs:   make(map[string]bool, len(cfg.FigureIDs)),
		bodies:      newBodyCache(bodyBytes),
		cold:        newLane(cfg.Metrics, classCold, maxQueue),
		figure:      newLane(cfg.Metrics, classFigure, figQueue),
		workloads:   workload.Names(),
		workloadSet: map[string]bool{},
		jobs:        map[string]*job{},
	}
	s.defaults.SimVersion = orchestrate.SimVersion
	for _, id := range cfg.FigureIDs {
		s.figureIDs[id] = true
	}
	for _, w := range s.workloads {
		s.workloadSet[w] = true
	}
	s.routes()
	return s, nil
}

// routes builds the mux: the /v1 API plus the shared telemetry
// endpoints (telemetry.Register), all on one listener.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sim", s.instrument("sim", s.handleSim))
	mux.HandleFunc("POST /v1/figures/{id}", s.instrument("figures", s.handleFigure))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJob))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("events", s.handleJobEvents))
	mux.HandleFunc("GET /v1/workloads", s.instrument("workloads", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, listResponse{Version: s.ver, Workloads: s.workloads})
	}))
	mux.HandleFunc("GET /v1/designs", s.instrument("designs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, listResponse{Version: s.ver, Designs: core.DesignNames()})
	}))
	mux.HandleFunc("GET /v1/figures", s.instrument("figures_list", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, listResponse{Version: s.ver, Figures: s.cfg.FigureIDs})
	}))
	mux.HandleFunc("GET /v1/version", s.instrument("version", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, versionResponse{Version: s.ver, SimVersion: orchestrate.SimVersion})
	}))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	if s.cfg.Metrics != nil {
		telemetry.Register(mux, s.cfg.Metrics)
	}
	if s.tracer != nil {
		tracing.Register(mux, s.tracer.Recorder())
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Pcstall-Version", s.ver)
		fmt.Fprint(w, "pcstall-serve\n\n"+
			"POST /v1/sim              run one simulation (JSON config; ?async=1 for 202+poll)\n"+
			"POST /v1/figures/{id}     regenerate a paper figure\n"+
			"GET  /v1/jobs/{id}        poll a job\n"+
			"GET  /v1/jobs/{id}/events stream progress (SSE)\n"+
			"GET  /v1/workloads        list workloads\n"+
			"GET  /v1/designs          list designs\n"+
			"GET  /v1/figures          list figure ids\n"+
			"GET  /v1/version          simulator version\n"+
			"GET  /healthz             readiness (200 accepting work, 503 draining)\n"+
			"GET  /metrics             Prometheus text (also /debug/vars, /debug/pprof/)\n")
	})
	s.mux = mux
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// statusWriter captures the response code for request metrics while
// passing Flush through (SSE needs the flusher).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument stamps the version header, records request count and
// handler latency per endpoint, and — when the server is traced — opens
// a "serve.<endpoint>" span on the request context. A coordinator's
// X-Pcstall-Trace header joins the request span to the remote trace, so
// one trace ID stitches the dispatch on the coordinator to the handler
// and job spans here.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Pcstall-Version", s.ver)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		ctx := tracing.WithTracer(r.Context(), s.tracer)
		if sc, ok := tracing.Extract(r.Header); ok {
			ctx = tracing.WithRemote(ctx, sc)
		}
		ctx, tspan := tracing.Start(ctx, "serve."+endpoint,
			tracing.String("http.method", r.Method),
			tracing.String("http.path", r.URL.Path))
		r = r.WithContext(ctx)
		start := time.Now()
		span := telemetry.StartSpan(s.tele.handler(endpoint))
		h(sw, r)
		span.End()
		tspan.SetAttr("http.status", fmt.Sprint(sw.code))
		tspan.End()
		s.tele.request(endpoint, sw.code)
		s.logRequest(endpoint, r, sw.code, time.Since(start), tspan.TraceID())
	}
}

// logRequest emits one structured access-log line. Health probes log at
// Debug so routine load-balancer and quarantine polling does not drown
// the job log.
func (s *Server) logRequest(endpoint string, r *http.Request, code int, dur time.Duration, traceID string) {
	if s.log == nil {
		return
	}
	level := slog.LevelInfo
	if endpoint == "healthz" {
		level = slog.LevelDebug
	}
	s.log.Log(r.Context(), level, "request",
		"endpoint", endpoint,
		"method", r.Method,
		"path", r.URL.Path,
		"status", code,
		"dur_ms", float64(dur)/float64(time.Millisecond),
		"trace_id", traceID,
	)
}

// ---------------------------------------------------------------------------
// Admission, singleflight, and the job lifecycle

// admit returns the job for id, atomically joining an existing one
// (singleflight) or admitting a new one that will execute run. The
// returned flags discriminate the outcome: joined (an existing job
// answered), shed (queue full), draining (server shutting down). A
// joined or created sync request holds a reference that the caller
// must release with detach. rctx is the admitting request's context:
// joins record a singleflight event on its span, and a fresh job's
// span is parented to it (so the job trace joins the coordinator's
// when the request carried X-Pcstall-Trace).
//
// Joinable jobs are the unsettled (in flight) and the successfully
// settled. A job that settled with an error or cancellation is NOT
// joined — replaying a stale failure would poison its key until
// eviction — it is replaced by a fresh admission, mirroring the
// orchestrator's contract that cancelled jobs are recomputed on
// resume.
func (s *Server) admit(rctx context.Context, id, kind string, run runFn, detached bool, timeout time.Duration) (j *job, joined, shed, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && (!j.settled || j.httpStatus == http.StatusOK) {
		if !j.settled {
			if detached {
				// An async client registered interest: the job must
				// now outlive its sync waiters.
				j.detached = true
			} else {
				j.refs++
			}
		}
		s.tele.singleflightInc()
		tracing.FromContext(rctx).Event("singleflight.join", tracing.String("job", id))
		return j, true, false, false
	}
	if s.draining {
		return nil, false, false, true
	}
	ln := s.lane(kind)
	if ln.inflight >= ln.max {
		ln.shed.Inc()
		return nil, false, true, false
	}
	if s.jobs[id] != nil {
		// Settled failure under this key: drop the stale record; the
		// fresh admission below takes its place.
		s.dropSettledLocked(id)
	}
	// The job outlives the admitting request, so its context derives
	// from the server's lifetime context — but its span is parented to
	// the request span (carried over as a remote parent), keeping the
	// whole job under the coordinator's trace ID without tying the
	// job's cancellation to the request's.
	base := s.baseCtx
	if s.tracer != nil {
		base = tracing.WithTracer(base, s.tracer)
		if sc := tracing.SpanContextOf(rctx); sc.TraceID != "" {
			base = tracing.WithRemote(base, sc)
		}
	}
	var jctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		jctx, cancel = context.WithTimeout(base, timeout)
	} else {
		jctx, cancel = context.WithCancel(base)
	}
	jctx, jspan := tracing.Start(jctx, "serve.job",
		tracing.String("job.key", id),
		tracing.String("kind", kind))
	j = &job{
		id:       id,
		kind:     kind,
		lane:     ln,
		ctx:      jctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		status:   statusQueued,
		detached: detached,
		span:     jspan,
		traceID:  jspan.TraceID(),
	}
	if !detached {
		j.refs = 1
	}
	s.jobs[id] = j
	ln.inflight++
	if s.tele != nil {
		s.tele.jobsTotal.Inc()
	}
	ln.publish()
	s.wg.Add(1)
	go s.runJob(j, run)
	return j, false, false, false
}

// singleflightInc is split out so admit reads cleanly.
func (t *serveTelemetry) singleflightInc() {
	if t != nil {
		t.singleflight.Inc()
	}
}

// runJob drives one admitted job: wait for a worker slot (or abandon if
// the job is cancelled while queued), execute, settle. Figure jobs wait
// on a dedicated single-slot lane — they serialize against each other
// anyway (Backend.Figure is not concurrent-safe), so a figure backlog
// must not occupy sim worker slots it cannot use.
func (s *Server) runJob(j *job, run runFn) {
	defer s.wg.Done()
	slot := s.sem
	if j.kind == kindFigure {
		slot = s.figureSem
	}
	span := telemetry.StartSpan(s.tele.queueWaitHist())
	select {
	case slot <- struct{}{}:
	case <-j.ctx.Done():
		span.End()
		s.settle(j, errCode(j.ctx.Err()), marshalBody(apiError{Version: s.ver, Error: "cancelled while queued: " + j.ctx.Err().Error()}))
		return
	}
	span.End()
	defer func() { <-slot }()
	j.span.Event("slot.acquired")
	s.mu.Lock()
	j.status = statusRunning
	j.startRun = time.Now()
	j.lane.running++
	j.lane.publish()
	s.mu.Unlock()
	code, body := run(j.ctx)
	s.settle(j, code, body)
}

// queueWaitHist is nil-safe access to the time-in-queue histogram.
func (t *serveTelemetry) queueWaitHist() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.queueWait
}

// settle publishes a job's outcome and releases its lane slot. The
// body is rendered and digested exactly once here; every waiter fans
// the same bytes out, and settled-OK sim bodies are promoted into the
// hot tier so later requests for the key skip the render entirely.
func (s *Server) settle(j *job, code int, body []byte) {
	status := statusDone
	switch {
	case code == http.StatusOK:
	case code == statusClientClosed || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout:
		status = statusCancelled
	default:
		status = statusError
	}
	digest := wire.Digest(body)
	s.mu.Lock()
	if j.status == statusRunning {
		j.lane.running--
		if code == http.StatusOK && !j.startRun.IsZero() {
			j.lane.durSum += time.Since(j.startRun)
			j.lane.durN++
		}
	}
	j.httpStatus, j.body, j.digest, j.status, j.settled = code, body, digest, status, true
	j.lane.inflight--
	s.doneOrder = append(s.doneOrder, j.id)
	s.evictLocked()
	j.lane.publish()
	s.mu.Unlock()
	if code == http.StatusOK && j.kind == kindSim {
		// The bytes were just rendered for this settlement (and its
		// singleflight waiters); keeping them hot means the next request
		// for the key never re-renders from the orchestrate record.
		s.bodyPut(j.id, body, digest)
	}
	j.cancel() // release the deadline timer
	if s.tele != nil {
		switch status {
		case statusError:
			s.tele.jobErrors.Inc()
		case statusCancelled:
			s.tele.jobsCanceled.Inc()
		}
	}
	j.span.SetAttr("status", status)
	j.span.SetAttr("http.status", fmt.Sprint(code))
	j.span.End()
	if s.log != nil {
		level := slog.LevelInfo
		if status == statusError {
			level = slog.LevelWarn
		}
		s.log.Log(context.Background(), level, "job settled",
			"job", j.id, "kind", j.kind, "status", status,
			"http_status", code, "trace_id", j.traceID)
	}
	close(j.done)
}

// recordSettled registers an already-settled job (a cache
// short-circuit) so it is pollable like any other, without ever
// touching queue accounting.
func (s *Server) recordSettled(id, kind string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		if !j.settled || j.httpStatus == http.StatusOK {
			return
		}
		// A stale failure under this key: the cache now has a good
		// result, so the fresh done record replaces it.
		s.dropSettledLocked(id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := &job{
		id: id, kind: kind, ctx: ctx, cancel: cancel,
		done: make(chan struct{}), status: statusDone,
		settled: true, httpStatus: http.StatusOK, body: body,
		detached: true,
	}
	close(j.done)
	s.jobs[id] = j
	s.doneOrder = append(s.doneOrder, id)
	s.evictLocked()
}

// detach drops one waiter's reference; the last sync waiter leaving an
// unsettled job cancels it (nobody is listening for the answer).
// Detaching from a settled job is a no-op — references only gate
// cancellation of live work.
func (s *Server) detach(j *job) {
	s.mu.Lock()
	if j.settled {
		s.mu.Unlock()
		return
	}
	j.refs--
	cancel := j.refs <= 0 && !j.detached
	s.mu.Unlock()
	if cancel {
		j.cancel()
	}
}

// evictLocked trims the oldest settled jobs beyond maxSettledJobs.
// Callers hold s.mu.
func (s *Server) evictLocked() {
	for len(s.doneOrder) > maxSettledJobs {
		id := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if j := s.jobs[id]; j != nil && j.settled {
			delete(s.jobs, id)
		}
	}
}

// dropSettledLocked removes a settled job's record from the map and
// the eviction order (so the id's later re-settlement is not evicted
// by the stale entry). Callers hold s.mu.
func (s *Server) dropSettledLocked(id string) {
	delete(s.jobs, id)
	for i, d := range s.doneOrder {
		if d == id {
			s.doneOrder = append(s.doneOrder[:i], s.doneOrder[i+1:]...)
			break
		}
	}
}

// bodyPut promotes a settled-OK rendering into the hot tier and
// publishes the tier's shape.
func (s *Server) bodyPut(key string, body []byte, digest string) {
	evicted := s.bodies.put(key, body, digest)
	entries, bytes := s.bodies.stats()
	s.tele.bodyShape(entries, bytes, evicted)
}

// lane returns the admission lane a job of kind is charged to.
func (s *Server) lane(kind string) *lane {
	if kind == kindFigure {
		return &s.figure
	}
	return &s.cold
}

// publish sets the lane's queue-shape gauges from the counters
// maintained at status transitions; callers hold Server.mu.
func (ln *lane) publish() {
	ln.depthGauge.Set(float64(ln.inflight - ln.running))
	ln.runningGauge.Set(float64(ln.running))
}

// statusClientClosed is nginx's 499 "client closed request": the job
// was cancelled because every interested client disconnected.
const statusClientClosed = 499

// errCode maps a job error to the settlement status code.
func errCode(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds estimates when a client shed from kind's lane
// should come back: that lane's backlog drain time from the lane's own
// observed mean job cost across its execution capacity, clamped to
// [1s, 10m]. Computing it per lane is the point: a saturated cold-sim
// backlog must not inflate the hint a shed figure client receives, and
// vice versa.
func (s *Server) retryAfterSeconds(kind string) int {
	s.mu.Lock()
	ln := s.lane(kind)
	backlog := ln.inflight
	var mean float64
	if ln.durN > 0 {
		mean = ln.durSum.Seconds() / float64(ln.durN)
	}
	s.mu.Unlock()
	capacity := cap(s.sem)
	if kind == kindFigure {
		capacity = cap(s.figureSem)
	}
	if mean == 0 {
		if kind == kindFigure {
			// No settled figure observed yet. A figure regenerates a
			// whole campaign, so guess high rather than invite an
			// immediate re-stampede.
			mean = 30
		} else {
			// Fall back to the orchestrator's campaign-wide mean.
			st := s.cfg.Backend.Stats()
			mean = 1.0
			if st.Misses > 0 {
				mean = st.JobTime.Seconds() / float64(st.Misses)
			}
		}
	}
	secs := int(math.Ceil(mean * float64(backlog) / float64(capacity)))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// ---------------------------------------------------------------------------
// Handlers

// handleSim admits one simulation request: cache short-circuit, then
// singleflight join, then bounded admission.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	// Sim configs are a few hundred bytes of sparse JSON; the cap stops
	// a confused or hostile client from streaming gigabytes into the
	// decoder. MaxBytesReader also severs the connection on overflow so
	// the rest of the flood is never read.
	simJob, timeout, err := s.parseSimRequest(http.MaxBytesReader(w, r.Body, maxSimRequestBytes))
	if err != nil {
		var reqErr *requestError
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &reqErr):
			writeJSON(w, http.StatusBadRequest, apiError{Version: s.ver, Error: reqErr.msg})
		case errors.As(err, &mbe):
			writeJSON(w, http.StatusRequestEntityTooLarge, apiError{
				Version: s.ver,
				Error:   fmt.Sprintf("sim config exceeds %d bytes", mbe.Limit),
			})
		default:
			writeJSON(w, http.StatusInternalServerError, apiError{Version: s.ver, Error: err.Error()})
		}
		return
	}
	key := simJob.Key()
	async := isAsync(r)

	// 1. Hot tier: a previously rendered body is served byte-identical,
	// digest and all, without touching the result cache or the encoder.
	if body, digest, ok := s.bodies.get(key); ok {
		s.tele.bodyHitInc()
		tracing.FromContext(r.Context()).SetAttr("cache", "lru")
		s.recordSettled(key, kindSim, body)
		s.writeSettled(w, r, http.StatusOK, key, body, digest)
		return
	}

	// 2. Cache short-circuit: a settled result never queues.
	if res, ok := s.cfg.Backend.Cached(key); ok {
		if s.tele != nil {
			s.tele.cacheHits.Inc()
		}
		tracing.FromContext(r.Context()).SetAttr("cache", "hit")
		body := marshalBody(simResponse{
			Version: s.ver, ID: key, Kind: kindSim, Status: statusDone,
			Job: simJob, Result: res,
		})
		digest := wire.Digest(body)
		s.bodyPut(key, body, digest)
		s.recordSettled(key, kindSim, body)
		s.writeSettled(w, r, http.StatusOK, key, body, digest)
		return
	}

	run := func(ctx context.Context) (int, []byte) {
		res, rerr := s.cfg.Backend.RunSim(ctx, simJob)
		if rerr != nil {
			return errCode(rerr), marshalBody(apiError{Version: s.ver, Error: rerr.Error()})
		}
		return http.StatusOK, marshalBody(simResponse{
			Version: s.ver, ID: key, Kind: kindSim, Status: statusDone,
			Job: simJob, Result: res,
		})
	}

	// 3+4. Singleflight join or bounded admission on the cold-sim lane.
	j, _, shed, draining := s.admit(r.Context(), key, kindSim, run, async, timeout)
	s.respondAdmitted(w, r, j, kindSim, shed, draining, async)
}

// handleFigure admits one figure-regeneration request. Figure jobs
// flow through the same queue and singleflight as simulations; their
// id is "fig-<figure>" (the platform is server-fixed, so the figure id
// is the whole config).
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	figID := r.PathValue("id")
	if !s.figureIDs[figID] {
		writeJSON(w, http.StatusNotFound, apiError{
			Version: s.ver,
			Error:   fmt.Sprintf("unknown figure %q (available: %v)", figID, s.cfg.FigureIDs),
		})
		return
	}
	id := "fig-" + figID
	async := isAsync(r)
	run := func(ctx context.Context) (int, []byte) {
		// Figures serialize against each other on the single-slot
		// figure lane (Backend.Figure is not concurrent-safe), while
		// their inner simulations still fan out across the
		// orchestrator pool.
		t, ferr := s.cfg.Backend.Figure(ctx, figID)
		if ferr != nil {
			return errCode(ferr), marshalBody(apiError{Version: s.ver, Error: ferr.Error()})
		}
		var text strings.Builder
		t.Fprint(&text)
		return http.StatusOK, marshalBody(figureResponse{
			Version: s.ver, ID: id, Kind: kindFigure, Status: statusDone,
			Figure: figID, Text: text.String(), Table: t,
		})
	}
	j, _, shed, draining := s.admit(r.Context(), id, kindFigure, run, async, s.cfg.DefaultTimeout)
	s.respondAdmitted(w, r, j, kindFigure, shed, draining, async)
}

// respondAdmitted finishes an admission outcome: shed and drain map to
// 429/503, async maps to 202+Location, sync waits for settlement (or
// the client leaving) and fans out the stored bytes. kind names the
// admission lane the request targeted, so shed responses carry that
// lane's own Retry-After rather than a global aggregate.
func (s *Server) respondAdmitted(w http.ResponseWriter, r *http.Request, j *job, kind string, shed, draining, async bool) {
	switch {
	case draining:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Version: s.ver, Error: "server is draining; no new work is admitted"})
		return
	case shed:
		ln := s.lane(kind) // class and max are immutable after New
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds(kind)))
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Version: s.ver,
			Error:   fmt.Sprintf("%s admission queue full (%d in flight); retry later", ln.class, ln.max),
		})
		return
	case async:
		s.mu.Lock()
		st := j.status
		s.mu.Unlock()
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, jobResponse{Version: s.ver, ID: j.id, Kind: j.kind, Status: st})
		return
	}
	select {
	case <-j.done:
		s.detach(j)
		s.writeSettled(w, r, j.httpStatus, j.id, j.body, j.digest)
	case <-r.Context().Done():
		// Client gone: drop our reference — the last one out cancels
		// the job's context, which the simulation observes at its next
		// epoch boundary. Nothing useful can be written to a dead
		// connection.
		s.detach(j)
	}
}

// writeStored writes a settled body verbatim, stamped with the
// end-to-end digest (wire.DigestHeader) over the exact bytes written.
// A coordinator recomputes the digest over the bytes it received, so
// corruption, truncation, or duplication anywhere on the wire is caught
// before a result is ingested — the transport's checksums guard a hop,
// the stamp guards the whole path. digest is the precomputed
// wire.Digest over body when the caller already has it (settle and the
// hot tier both do); "" computes it here.
func (s *Server) writeStored(w http.ResponseWriter, code int, body []byte, digest string) {
	if digest == "" {
		digest = wire.Digest(body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(wire.DigestHeader, digest)
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// writeSettled writes a settled response body, stamping successful ones
// with an ETag derived from the content-addressed job id. A request
// whose If-None-Match names that id (a coordinator retrying work whose
// body it already ingested) is answered 304 without the body: the job
// key determines the bytes, so matching keys means matching bodies —
// exactly the invariant the singleflight fan-out already relies on.
func (s *Server) writeSettled(w http.ResponseWriter, r *http.Request, code int, id string, body []byte, digest string) {
	if code == http.StatusOK {
		etag := `"` + id + `"`
		w.Header().Set("ETag", etag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			if s.tele != nil {
				s.tele.etagHits.Inc()
			}
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	s.writeStored(w, code, body, digest)
}

// etagMatch reports whether an If-None-Match header names etag (or "*").
// Weak validators compare equal to their strong form: the body is a pure
// function of the key, so there is no weaker equivalence to express.
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// handleHealthz is the readiness probe: 200 while accepting work, 503
// once draining, with the queue shape in the body either way. The
// distributed coordinator's quarantine loop probes it before returning a
// backend to rotation; it is equally suited to load-balancer checks.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	queues := make(map[string]laneHealth, 2)
	depth, running := 0, 0
	for _, ln := range [...]*lane{&s.cold, &s.figure} {
		d := ln.inflight - ln.running
		queues[ln.class] = laneHealth{QueueDepth: d, Running: ln.running, Capacity: ln.max}
		depth += d
		running += ln.running
	}
	draining := s.draining
	s.mu.Unlock()
	code, status := http.StatusOK, "ok"
	if draining {
		code, status = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, code, healthResponse{
		Version: s.ver, Status: status,
		QueueDepth: depth, Running: running, Queues: queues, Draining: draining,
	})
}

// handleJob reports one job's state, including the settled response
// body once done.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	var st string
	if j != nil {
		st = j.status
	}
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Version: s.ver, Error: fmt.Sprintf("unknown job %q", id)})
		return
	}
	resp := jobResponse{Version: s.ver, ID: j.id, Kind: j.kind, Status: st}
	select {
	case <-j.done:
		resp.Status = j.status
		resp.Response = json.RawMessage(j.body)
	default:
	}
	writeJSON(w, http.StatusOK, resp)
}

// isAsync reports whether the request opted into 202-and-poll.
func isAsync(r *http.Request) bool {
	switch r.URL.Query().Get("async") {
	case "", "0", "false":
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// Drain

// StopAdmitting puts the server in drain mode: every new admission is
// answered 503 while in-flight jobs keep running.
func (s *Server) StopAdmitting() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if s.tele != nil {
		s.tele.draining.Set(1)
	}
}

// Drain stops admissions and waits for in-flight jobs to settle. If
// ctx expires first, every unsettled job's context is cancelled — the
// simulations wind down at their next epoch boundary — and Drain waits
// for the (now prompt) settlement before returning ctx's error. After
// Drain returns the caller owns flushing the cache and manifest.
func (s *Server) Drain(ctx context.Context) error {
	s.StopAdmitting()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if !j.settled {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
