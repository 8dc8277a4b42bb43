package orchestrate

import "pcstall/internal/telemetry"

// orchTelemetry is the orchestrator's metric bundle: live campaign
// counters and gauges (what a /metrics scrape watches while jobs are in
// flight) plus per-job phase histograms. Job-internal simulation
// metrics arrive separately: each executed job runs against its own
// child registry, whose snapshot is merged into this registry when the
// job settles and recorded on the job's manifest entry.
type orchTelemetry struct {
	reg *telemetry.Registry

	jobsCompleted *telemetry.Counter
	memHits       *telemetry.Counter
	diskHits      *telemetry.Counter
	misses        *telemetry.Counter
	errors        *telemetry.Counter

	deadlocks       *telemetry.Counter
	retries         *telemetry.Counter
	panics          *telemetry.Counter
	cancellations   *telemetry.Counter
	cacheWriteFails *telemetry.Counter
	cacheRepairs    *telemetry.Counter

	running    *telemetry.Gauge
	queueDepth *telemetry.Gauge

	queueWait *telemetry.Histogram
	runPhase  *telemetry.Histogram
	cacheGet  *telemetry.Histogram
	cachePut  *telemetry.Histogram
}

// newOrchTelemetry builds the bundle on r; a nil r leaves every handle
// nil, so each record is a no-op.
func newOrchTelemetry(r *telemetry.Registry) orchTelemetry {
	return orchTelemetry{
		reg:           r,
		jobsCompleted: r.Counter("orchestrate_jobs_completed_total", "jobs settled (computed or cache-served)"),
		memHits:       r.Counter("orchestrate_cache_mem_hits_total", "submissions answered by the in-process memo"),
		diskHits:      r.Counter("orchestrate_cache_disk_hits_total", "submissions answered by the cache directory"),
		misses:        r.Counter("orchestrate_cache_misses_total", "submissions that ran a simulation"),
		errors:        r.Counter("orchestrate_job_errors_total", "jobs that settled with an error"),
		deadlocks:     r.Counter("orchestrate_job_deadlocks_total", "jobs stopped by the simulation watchdog (deadlock or cycle budget)"),
		retries:       r.Counter("orchestrate_job_retries_total", "job attempts retried after a transient failure"),
		panics:        r.Counter("orchestrate_job_panics_total", "jobs that settled with a recovered panic"),
		cancellations: r.Counter("orchestrate_jobs_cancelled_total", "jobs abandoned by fail-fast or campaign interruption"),
		cacheWriteFails: r.Counter("orchestrate_cache_write_failures_total",
			"result-cache persistence failures (disk writes disabled for the rest of the run)"),
		cacheRepairs: r.Counter("orchestrate_cache_repairs_total", "cache files truncate-repaired after a corrupt tail"),
		running:      r.Gauge("orchestrate_jobs_running", "jobs holding a worker slot now"),
		queueDepth:   r.Gauge("orchestrate_queue_depth", "jobs scheduled but not yet running or settled"),
		queueWait:    r.Phase("orchestrate_job_queue_wait"),
		runPhase:     r.Phase("orchestrate_job_run"),
		cacheGet:     r.Phase("orchestrate_cache_get"),
		cachePut:     r.Phase("orchestrate_cache_put"),
	}
}

// updateGauges publishes the pool state; callers hold o.mu.
func (o *Orchestrator) updateGauges() {
	o.tele.running.Set(float64(o.running))
	o.tele.queueDepth.Set(float64(len(o.memo) - o.completed - o.running))
}
