package orchestrate

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pcstall/internal/dvfs"
	"pcstall/internal/sim"
	"pcstall/internal/telemetry"
	"pcstall/internal/tracing"
)

// RunFunc computes one job. It must be a pure function of the Job (given
// a fixed simulator version): the orchestrator calls it from worker
// goroutines and caches what it returns. It must not retain or mutate
// shared state. The context is the job's cancellation signal — it is
// cancelled when the campaign fails fast, times out this job, or is
// interrupted — and well-behaved executors check it at every epoch
// boundary (dvfs.RunConfig.Ctx) and return ctx.Err() promptly. The
// registry is the job's private telemetry sink (nil when Config.Metrics
// is unset); executors thread it into the run so per-job metric
// snapshots land on the manifest — recording into it must never change
// the returned result.
type RunFunc func(ctx context.Context, j Job, reg *telemetry.Registry) (*dvfs.Result, error)

// PanicError is what a job that panicked settles with: the recovered
// value plus the goroutine stack at the panic site. Panics are never
// retried (a panic is a bug, not a transient fault) and never crash the
// campaign process; they fail the job and, through fail-fast, cancel the
// rest of the batch.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", e.Value, e.Stack)
}

// Config shapes an Orchestrator.
type Config struct {
	// Workers bounds concurrently executing simulations; <= 0 selects
	// runtime.NumCPU(). Workers == 1 reproduces strictly serial behaviour
	// (identical results either way; jobs are deterministic).
	Workers int
	// CacheDir enables the persistent result cache ("" = in-memory only).
	CacheDir string
	// NoCache disables the disk layer entirely: nothing is read from or
	// written to CacheDir. The in-process memo stays on — figures that
	// share runs (Fig. 15/16/17 all run PCSTALL@1µs) rely on it, and it
	// cannot go stale within one process.
	NoCache bool
	// Run executes one job; required.
	Run RunFunc
	// JobTimeout bounds each attempt of each executed job (0 = no
	// bound). A cooperative RunFunc (one that honours its context)
	// returns promptly when the deadline fires; a RunFunc that ignores
	// its context is abandoned — its goroutine keeps running until it
	// returns, but the job settles with a timeout error and the worker
	// slot is handed to the next job.
	JobTimeout time.Duration
	// Retries is how many times a failed attempt is retried before the
	// job settles with its error. Retries target transient faults (disk
	// hiccups, injected flakiness); panics and campaign cancellation are
	// never retried. 0 disables retry.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling each
	// subsequent one (default 100ms) and jittered (Jitter) so a fleet of
	// campaigns hitting the same fault never retries in lockstep. The
	// backoff sleep aborts early if the campaign is cancelled.
	RetryBackoff time.Duration
	// Progress, when non-nil, receives a Stats snapshot every
	// ProgressEvery (default 2s) while jobs are in flight, and once more
	// on Close.
	Progress      func(Stats)
	ProgressEvery time.Duration
	// Metrics, when non-nil, turns on campaign telemetry: live pool
	// counters/gauges and phase histograms are recorded here, each
	// executed job gets a private child registry whose snapshot is
	// merged in on settle and attached to the job's manifest entry. Nil
	// disables all of it (jobs then run with a nil registry).
	Metrics *telemetry.Registry
	// Log, when non-nil, receives structured job-lifecycle records
	// (settles, retries, failures) correlated by trace ID. Nil disables
	// job logging.
	Log *slog.Logger
}

// Stats is a point-in-time snapshot of campaign progress.
type Stats struct {
	// Workers is the pool bound.
	Workers int
	// Unique counts distinct jobs owned by the memo; Completed of those
	// are settled and Running hold a worker slot now. Queued jobs are
	// scheduled but waiting (for a slot or for the disk-cache check).
	Unique, Completed, Running, Queued int
	// Submissions counts every submission including memo-answered
	// duplicates; MemHits + DiskHits + Misses accounts for all settled
	// lookups.
	Submissions, MemHits, DiskHits, Misses int
	// Retries counts retried attempts, Panics jobs that settled with a
	// recovered panic, and Cancelled jobs abandoned by fail-fast or an
	// interrupted campaign (cancelled jobs leave the memo so a resumed
	// campaign recomputes them).
	Retries, Panics, Cancelled int
	// JobTime is summed per-job compute time; Elapsed is wall time since
	// the orchestrator was created. JobTime/Elapsed ≈ realized speedup.
	JobTime, Elapsed time.Duration
}

// String renders the periodic progress line.
func (s Stats) String() string {
	line := fmt.Sprintf("orchestrate: %d/%d jobs done (%d running, %d queued), cache %d mem + %d disk hits / %d misses, %d workers, %s elapsed",
		s.Completed, s.Unique, s.Running, s.Queued,
		s.MemHits, s.DiskHits, s.Misses, s.Workers,
		s.Elapsed.Round(time.Millisecond))
	if s.Retries > 0 || s.Panics > 0 || s.Cancelled > 0 {
		line += fmt.Sprintf(", %d retries, %d panics, %d cancelled", s.Retries, s.Panics, s.Cancelled)
	}
	return line
}

// future is one in-flight or settled job computation.
type future struct {
	done chan struct{}
	res  *dvfs.Result
	err  error
}

// Orchestrator shards jobs across a bounded worker pool with a
// content-addressed result cache. Methods are safe for concurrent use.
type Orchestrator struct {
	run          RunFunc
	workers      int
	noCache      bool
	cache        *Cache
	sem          chan struct{}
	created      time.Time
	tele         orchTelemetry
	log          *slog.Logger
	jobTimeout   time.Duration
	retries      int
	retryBackoff time.Duration

	mu          sync.Mutex
	memo        map[string]*future
	entries     []ManifestEntry
	submissions int
	completed   int
	running     int
	memHits     int
	diskHits    int
	misses      int
	retried     int
	panicked    int
	cancelled   int
	jobTime     time.Duration

	progressStop chan struct{}
	progressDone chan struct{}
	closeOnce    sync.Once
	closeErr     error
}

// New builds an Orchestrator. The caller owns it and must Close it to
// flush the cache append handle and stop the progress loop.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Run == nil {
		return nil, fmt.Errorf("orchestrate: Config.Run is required")
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	o := &Orchestrator{
		run:          cfg.Run,
		workers:      w,
		noCache:      cfg.NoCache,
		sem:          make(chan struct{}, w),
		created:      time.Now(),
		memo:         map[string]*future{},
		tele:         newOrchTelemetry(cfg.Metrics),
		log:          cfg.Log,
		jobTimeout:   cfg.JobTimeout,
		retries:      cfg.Retries,
		retryBackoff: backoff,
	}
	if cfg.CacheDir != "" && !cfg.NoCache {
		c, err := OpenCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		o.cache = c
		if c.Repaired() {
			o.tele.cacheRepairs.Inc()
		}
	}
	if cfg.Progress != nil {
		every := cfg.ProgressEvery
		if every <= 0 {
			every = 2 * time.Second
		}
		o.progressStop = make(chan struct{})
		o.progressDone = make(chan struct{})
		go func() {
			t := time.NewTicker(every)
			defer t.Stop()
			defer close(o.progressDone)
			for {
				select {
				case <-t.C:
					cfg.Progress(o.Stats())
				case <-o.progressStop:
					cfg.Progress(o.Stats())
					return
				}
			}
		}()
	}
	return o, nil
}

// Stats snapshots campaign progress.
func (o *Orchestrator) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Stats{
		Workers:     o.workers,
		Unique:      len(o.memo),
		Completed:   o.completed,
		Running:     o.running,
		Queued:      len(o.memo) - o.completed - o.running,
		Submissions: o.submissions,
		MemHits:     o.memHits,
		DiskHits:    o.diskHits,
		Misses:      o.misses,
		Retries:     o.retried,
		Panics:      o.panicked,
		Cancelled:   o.cancelled,
		JobTime:     o.jobTime,
		Elapsed:     time.Since(o.created),
	}
}

// Cached returns the already-settled result for key without scheduling
// any work: the in-process memo answers when the job has completed
// successfully, else the disk cache. It is the serving layer's
// short-circuit hook — a hit can be fanned out to callers without
// consuming a worker slot or queue capacity, and it never perturbs
// campaign accounting (no hit counters, no manifest entry). In-flight
// and failed jobs read as misses.
func (o *Orchestrator) Cached(key string) (*dvfs.Result, bool) {
	o.mu.Lock()
	if f, ok := o.memo[key]; ok {
		select {
		case <-f.done:
			if f.err == nil {
				o.mu.Unlock()
				return f.res, true
			}
		default:
		}
	}
	o.mu.Unlock()
	if o.cache != nil {
		if r, ok := o.cache.Get(key); ok {
			return r, true
		}
	}
	return nil, false
}

// RunJob executes a single job through the pool — the serving layer's
// one-request entry point. Semantics are RunJobs' for a batch of one:
// duplicates of in-flight or settled keys share the computation, and a
// cancelled job leaves the memo for recomputation.
func (o *Orchestrator) RunJob(ctx context.Context, j Job) (*dvfs.Result, error) {
	rs, err := o.RunJobs(ctx, []Job{j})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// isCancellation reports whether err is campaign cancellation (as
// opposed to a job failing on its own).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled)
}

// Jitter spreads a backoff delay uniformly over [d/2, 3d/2) so
// independent retriers — a campaign's worker pool, a coordinator fleet's
// quarantine probes — never fall into lockstep against a recovering
// resource. The orchestrator's own retry loop and internal/dist's
// backend quarantine both sleep through it.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// jobSourceKey carries the per-job source holder through the context the
// orchestrator hands its RunFunc.
type jobSourceKey struct{}

// jobSource is the holder SetJobSource and AddJobFault write into.
type jobSource struct {
	mu     sync.Mutex
	s      string
	faults []string
}

// SetJobSource records where a job's result was actually computed —
// "remote:<backend>" for a result ingested from a pcstall-serve worker,
// "local-fallback" for the dispatcher's degraded lane — so the campaign
// manifest carries provenance per job. It is a no-op when ctx does not
// descend from an orchestrator job (the default Source "run" stands).
func SetJobSource(ctx context.Context, source string) {
	h, ok := ctx.Value(jobSourceKey{}).(*jobSource)
	if !ok {
		return
	}
	h.mu.Lock()
	h.s = source
	h.mu.Unlock()
}

// AddJobFault records one fault a job survived on its way to a result —
// "integrity:<backend>" for a corrupted reply caught by digest
// verification, "timeout:<backend>" for a deadline-bounded black hole,
// "shed:<backend>"/"error:<backend>" for load shedding and plain
// dispatch failures. Faults accumulate in dispatch order on the
// manifest entry, so a campaign that completed despite a lying network
// shows exactly what it absorbed. No-op when ctx does not descend from
// an orchestrator job.
func AddJobFault(ctx context.Context, fault string) {
	h, ok := ctx.Value(jobSourceKey{}).(*jobSource)
	if !ok {
		return
	}
	h.mu.Lock()
	h.faults = append(h.faults, fault)
	h.mu.Unlock()
}

// RunJobs executes jobs through the pool and returns results in job
// order regardless of completion order. Duplicate keys — within the
// batch or across earlier calls — are computed once and shared.
//
// Failure is fail-fast: the first job to settle with an error cancels
// the batch context, which aborts queued jobs and (through the
// per-epoch check in dvfs.Run) winds down in-flight ones; RunJobs still
// waits for every job to settle before returning, so no goroutines are
// left running. The reported error is the first non-cancellation error
// in job order (the root cause, not the collateral cancellations).
// Jobs cancelled this way — or by ctx — are removed from the memo and
// never written to the cache or manifest, so a later call (or a resumed
// campaign) recomputes exactly the missing work.
func (o *Orchestrator) RunJobs(ctx context.Context, jobs []Job) ([]*dvfs.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	futs := make([]*future, len(jobs))
	for i, j := range jobs {
		futs[i] = o.submit(bctx, j)
	}
	// Fail-fast watchers: duplicates share futures, watch each once.
	watched := make(map[*future]bool, len(futs))
	for _, f := range futs {
		if watched[f] {
			continue
		}
		watched[f] = true
		go func(f *future) {
			<-f.done
			if f.err != nil {
				cancel()
			}
		}(f)
	}
	out := make([]*dvfs.Result, len(jobs))
	var firstErr, firstCancel error
	for i, f := range futs {
		<-f.done
		if f.err != nil {
			wrapped := fmt.Errorf("orchestrate: job %s: %w", jobs[i].String(), f.err)
			if isCancellation(f.err) {
				if firstCancel == nil {
					firstCancel = wrapped
				}
			} else if firstErr == nil {
				firstErr = wrapped
			}
		}
		out[i] = f.res
	}
	if firstErr == nil {
		firstErr = firstCancel
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// submit routes one job to its future, creating (and scheduling) it on
// first sight of the key.
func (o *Orchestrator) submit(ctx context.Context, j Job) *future {
	key := j.Key()
	o.mu.Lock()
	o.submissions++
	if f, ok := o.memo[key]; ok {
		o.memHits++
		o.mu.Unlock()
		o.tele.memHits.Inc()
		return f
	}
	f := &future{done: make(chan struct{})}
	o.memo[key] = f
	o.updateGauges()
	o.mu.Unlock()
	go o.exec(ctx, j, key, f)
	return f
}

// settleCancelled records a job abandoned by cancellation: it settles
// the future with err but forgets the key, so a later submission (or a
// resumed campaign reading the disk cache) recomputes it. Cancelled
// jobs never reach the cache or the manifest. Callers must not hold
// o.mu; close(f.done) remains the caller's (deferred) responsibility.
func (o *Orchestrator) settleCancelled(key string, f *future, err error, wasRunning bool) {
	f.err = err
	o.mu.Lock()
	if o.memo[key] == f {
		delete(o.memo, key)
	}
	if wasRunning {
		o.running--
	}
	o.cancelled++
	o.updateGauges()
	o.mu.Unlock()
	o.tele.cancellations.Inc()
}

// exec settles one future: disk-cache lookup, else a pooled run.
func (o *Orchestrator) exec(ctx context.Context, j Job, key string, f *future) {
	defer close(f.done)
	// The job span ties everything below (queue wait, attempts, dvfs
	// epochs) into the distributed trace: under serve/dist the context
	// already carries a request or dispatch parent, under a plain
	// campaign it roots a fresh trace, and untraced contexts get a nil
	// span whose methods no-op.
	ctx, jobSpan := tracing.Start(ctx, "orchestrate.job",
		tracing.String("job.key", key),
		tracing.String("app", j.App),
		tracing.String("design", j.Design))
	// Adjacent phases share their boundary clock readings: the cache
	// lookup's end starts the queue wait, whose end starts the job.
	mark := time.Now()
	if o.cache != nil {
		r, ok := o.cache.Get(key)
		now := time.Now()
		o.tele.cacheGet.Observe(now.Sub(mark).Seconds())
		mark = now
		if ok {
			f.res = r
			jobSpan.SetAttr("source", "disk")
			jobSpan.End()
			o.mu.Lock()
			o.diskHits++
			o.completed++
			o.entries = append(o.entries, ManifestEntry{
				Key: key, Job: j, Source: "disk", TraceID: jobSpan.TraceID(),
			})
			o.updateGauges()
			o.mu.Unlock()
			o.tele.diskHits.Inc()
			o.tele.jobsCompleted.Inc()
			return
		}
	}
	// Acquire a worker slot — or give up if the campaign is cancelled
	// while this job is still queued.
	select {
	case o.sem <- struct{}{}:
	case <-ctx.Done():
		o.tele.queueWait.Observe(time.Since(mark).Seconds())
		jobSpan.SetAttr("cancelled", "queued")
		jobSpan.End()
		o.settleCancelled(key, f, ctx.Err(), false)
		return
	}
	start := time.Now()
	o.tele.queueWait.Observe(start.Sub(mark).Seconds())
	jobSpan.Event("slot.acquired")
	// The slot is released via defer so that no path out of the attempt
	// loop — error, cancellation, or a recovered panic — can shrink the
	// pool. (The release now covers the cache write too; that write is
	// memory-speed next to a simulation, so holding the slot over it is
	// immaterial.)
	defer func() { <-o.sem }()
	o.mu.Lock()
	o.running++
	o.updateGauges()
	o.mu.Unlock()
	// Each executed job records into a private registry so parallel jobs
	// never confound each other's snapshots; the snapshot is merged into
	// the campaign registry once the job settles.
	var jobReg *telemetry.Registry
	if o.tele.reg != nil {
		jobReg = telemetry.New()
	}
	// The source holder lets a dispatching RunFunc report where the
	// result actually came from (SetJobSource); unset means "run".
	src := &jobSource{}
	r, err := o.runAttempts(context.WithValue(ctx, jobSourceKey{}, src), j, jobReg)
	end := time.Now()
	dur := end.Sub(start)
	if err != nil && isCancellation(err) && ctx.Err() != nil {
		// Cancelled out from under the job (fail-fast or interrupt), not
		// a failure of the job itself.
		jobSpan.SetAttr("cancelled", "running")
		jobSpan.End()
		o.settleCancelled(key, f, err, true)
		return
	}
	if err == nil && o.cache != nil {
		if perr := o.cache.Put(key, j, r); perr != nil {
			// Persistence is best-effort: the computed result stands, the
			// failure is counted, and the cache has disabled further disk
			// writes for this run (the in-memory layer stays warm).
			o.tele.cacheWriteFails.Inc()
		}
		o.tele.cachePut.Observe(time.Since(end).Seconds())
	}
	f.res, f.err = r, err
	entry := ManifestEntry{
		Key: key, Job: j, Source: "run",
		DurationMS: float64(dur) / float64(time.Millisecond),
		TraceID:    jobSpan.TraceID(),
	}
	src.mu.Lock()
	if src.s != "" {
		entry.Source = src.s
	}
	entry.Faults = src.faults
	src.mu.Unlock()
	if err != nil {
		entry.Error = err.Error()
		jobSpan.SetAttr("error", err.Error())
	}
	jobSpan.SetAttr("source", entry.Source)
	jobSpan.End()
	o.logJob(entry, err)
	if o.tele.reg != nil {
		snap := jobReg.Snapshot()
		o.tele.reg.Merge(snap)
		entry.Metrics = &snap
		o.tele.misses.Inc()
		o.tele.jobsCompleted.Inc()
		if err != nil {
			o.tele.errors.Inc()
			var de *sim.DeadlockError
			if errors.As(err, &de) {
				o.tele.deadlocks.Inc()
			}
		}
	}
	o.mu.Lock()
	o.running--
	o.completed++
	o.misses++
	o.jobTime += dur
	o.entries = append(o.entries, entry)
	o.updateGauges()
	o.mu.Unlock()
}

// logJob emits one structured job-settle record correlated by trace ID.
func (o *Orchestrator) logJob(entry ManifestEntry, err error) {
	if o.log == nil {
		return
	}
	attrs := []any{
		"job", entry.Job.String(),
		"key", entry.Key,
		"source", entry.Source,
		"dur_ms", entry.DurationMS,
	}
	if entry.TraceID != "" {
		attrs = append(attrs, "trace_id", entry.TraceID)
	}
	if err != nil {
		o.log.Warn("job failed", append(attrs, "err", err.Error())...)
		return
	}
	o.log.Info("job settled", attrs...)
}

// runAttempts drives the retry loop around runOnce: transient failures
// are retried up to Config.Retries times with doubling backoff; panics
// and campaign cancellation settle immediately.
func (o *Orchestrator) runAttempts(ctx context.Context, j Job, reg *telemetry.Registry) (*dvfs.Result, error) {
	backoff := o.retryBackoff
	for attempt := 0; ; attempt++ {
		r, err := o.runOnce(ctx, j, reg)
		if err == nil {
			return r, nil
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			o.mu.Lock()
			o.panicked++
			o.mu.Unlock()
			o.tele.panics.Inc()
			return nil, err
		}
		if isCancellation(err) && ctx.Err() != nil {
			return nil, err
		}
		if attempt >= o.retries || ctx.Err() != nil {
			if attempt > 0 {
				err = fmt.Errorf("after %d attempts: %w", attempt+1, err)
			}
			return nil, err
		}
		o.mu.Lock()
		o.retried++
		o.mu.Unlock()
		o.tele.retries.Inc()
		tracing.FromContext(ctx).Event("retry",
			tracing.Int("attempt", int64(attempt+1)),
			tracing.String("error", err.Error()))
		if o.log != nil {
			o.log.Warn("retrying job",
				"job", j.String(), "attempt", attempt+1, "err", err.Error(),
				"trace_id", tracing.TraceIDFrom(ctx))
		}
		select {
		case <-time.After(Jitter(backoff)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		backoff *= 2
	}
}

// runOnce executes one attempt of the job under the per-job timeout,
// with panic isolation. The RunFunc runs on its own goroutine: a panic
// there is recovered into a *PanicError (stack attached) instead of
// crashing the process, and an attempt that outlives its deadline is
// abandoned — the buffered channel lets the stray goroutine deliver its
// ignored outcome and exit, so a cooperative RunFunc leaks nothing.
func (o *Orchestrator) runOnce(ctx context.Context, j Job, reg *telemetry.Registry) (*dvfs.Result, error) {
	actx := ctx
	if o.jobTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, o.jobTimeout)
		defer cancel()
	}
	type outcome struct {
		r   *dvfs.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: &PanicError{Value: p, Stack: debug.Stack()}}
			}
		}()
		r, err := o.run(actx, j, reg)
		ch <- outcome{r, err}
	}()
	start := time.Now()
	select {
	case out := <-ch:
		o.tele.runPhase.Observe(time.Since(start).Seconds())
		// A cooperative RunFunc surfaces the attempt deadline itself;
		// normalize it to the same shape as the abandoned-attempt path.
		if out.err != nil && errors.Is(out.err, context.DeadlineExceeded) && actx.Err() != nil && ctx.Err() == nil {
			return nil, fmt.Errorf("timed out after %v: %w", o.jobTimeout, out.err)
		}
		return out.r, out.err
	case <-actx.Done():
		o.tele.runPhase.Observe(time.Since(start).Seconds())
		err := actx.Err()
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			return nil, fmt.Errorf("timed out after %v: %w", o.jobTimeout, err)
		}
		return nil, err
	}
}

// Close stops the progress loop and releases the cache append handle.
// The orchestrator remains usable for in-memory work afterwards.
func (o *Orchestrator) Close() error {
	o.closeOnce.Do(func() {
		if o.progressStop != nil {
			close(o.progressStop)
			<-o.progressDone
		}
		if o.cache != nil {
			o.closeErr = o.cache.Close()
		}
	})
	return o.closeErr
}
