package serve

import (
	"fmt"

	"pcstall/internal/telemetry"
)

// serveTelemetry is the serving layer's metric bundle: request counters
// by endpoint and status, hot-tier body cache accounting, singleflight
// fan-out hits, and the two latency distributions that matter for
// capacity planning — time-in-queue and handler latency. The admission
// lanes carry their own series (newLane). Simulation-side metrics
// (orchestrate_*, sim_*) live in the same registry but are recorded by
// the layers below.
type serveTelemetry struct {
	reg *telemetry.Registry

	singleflight *telemetry.Counter
	cacheHits    *telemetry.Counter
	etagHits     *telemetry.Counter
	jobsTotal    *telemetry.Counter
	jobErrors    *telemetry.Counter
	jobsCanceled *telemetry.Counter

	bodyHits      *telemetry.Counter
	bodyEvictions *telemetry.Counter
	bodyEntries   *telemetry.Gauge
	bodyBytes     *telemetry.Gauge

	draining *telemetry.Gauge

	queueWait *telemetry.Histogram
}

// newServeTelemetry builds the bundle on r (nil r yields nil, making
// every record a nil check). The admission lanes' series are registered
// by newLane.
func newServeTelemetry(r *telemetry.Registry) *serveTelemetry {
	if r == nil {
		return nil
	}
	return &serveTelemetry{
		reg:           r,
		singleflight:  r.Counter("serve_singleflight_hits_total", "requests answered by joining an identical in-flight or settled job"),
		cacheHits:     r.Counter("serve_cache_short_circuit_total", "requests answered from the result cache without queueing"),
		etagHits:      r.Counter("serve_etag_hits_total", "settled responses answered 304 because If-None-Match named the job key"),
		jobsTotal:     r.Counter("serve_jobs_total", "jobs admitted to the queue"),
		jobErrors:     r.Counter("serve_job_errors_total", "admitted jobs that settled with an error"),
		jobsCanceled:  r.Counter("serve_jobs_cancelled_total", "admitted jobs cancelled before completing (client gone, deadline, drain)"),
		bodyHits:      r.Counter("serve_body_cache_hits_total", "requests answered from the rendered-body LRU without touching the result cache or re-rendering JSON"),
		bodyEvictions: r.Counter("serve_body_cache_evictions_total", "rendered bodies evicted from the LRU to hold the byte budget"),
		bodyEntries:   r.Gauge("serve_body_cache_entries", "rendered bodies currently held by the LRU"),
		bodyBytes:     r.Gauge("serve_body_cache_bytes", "bytes of rendered bodies currently held by the LRU"),
		draining:      r.Gauge("serve_draining", "1 while the server is draining (new work is rejected)"),
		queueWait:     r.Phase("serve_time_in_queue"),
	}
}

// newLane builds one admission lane and registers its series on r (nil
// r leaves them nil, so every write is a no-op). The series share base
// names and differ by a literal class label, so the Prometheus
// exposition groups them into proper labelled families:
// serve_queue_depth{class="cold"}, serve_shed_total{class="figure"}, ...
func newLane(r *telemetry.Registry, class string, max int) lane {
	return lane{
		class:        class,
		max:          max,
		depthGauge:   r.Gauge(fmt.Sprintf("serve_queue_depth{class=%q}", class), "admitted jobs waiting for a worker slot, by admission lane"),
		runningGauge: r.Gauge(fmt.Sprintf("serve_jobs_running{class=%q}", class), "jobs holding a serving worker slot now, by admission lane"),
		shed:         r.Counter(fmt.Sprintf("serve_shed_total{class=%q}", class), "requests rejected with 429 because the lane's admission queue was full"),
	}
}

// bodyHitInc counts one hot-tier hit.
func (t *serveTelemetry) bodyHitInc() {
	if t != nil {
		t.bodyHits.Inc()
	}
}

// bodyShape publishes the LRU's size after a put, plus any evictions it
// caused.
func (t *serveTelemetry) bodyShape(entries int, bytes int64, evicted int) {
	if t == nil {
		return
	}
	if evicted > 0 {
		t.bodyEvictions.Add(int64(evicted))
	}
	t.bodyEntries.Set(float64(entries))
	t.bodyBytes.Set(float64(bytes))
}

// request counts one finished request by endpoint and status code.
func (t *serveTelemetry) request(endpoint string, code int) {
	if t == nil {
		return
	}
	t.reg.Counter(
		fmt.Sprintf("serve_requests_%s_%d_total", endpoint, code),
		"requests served on the "+endpoint+" endpoint by status code",
	).Inc()
}

// handler returns the latency histogram for one endpoint.
func (t *serveTelemetry) handler(endpoint string) *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.reg.Phase("serve_handler_" + endpoint)
}
