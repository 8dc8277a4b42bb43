package dist

import (
	"fmt"
	"strings"

	"pcstall/internal/telemetry"
)

// distTelemetry is the coordinator's metric bundle: fleet-wide counters
// for dispatches, steals, requeues, quarantines, and local fallbacks,
// a healthy-backend gauge, and the remote job latency distribution.
// Per-backend counters are derived on demand (the serving layer's
// per-endpoint idiom) under sanitized URL labels.
type distTelemetry struct {
	reg *telemetry.Registry

	stolen    *telemetry.Counter
	requeues  *telemetry.Counter
	fallbacks *telemetry.Counter
	etagHits  *telemetry.Counter
	integrity *telemetry.Counter
	timeouts  *telemetry.Counter

	healthy *telemetry.Gauge

	remote *telemetry.Histogram
}

// newDistTelemetry builds the bundle on r; a nil r leaves every handle
// nil, so each record is a no-op.
func newDistTelemetry(r *telemetry.Registry) distTelemetry {
	return distTelemetry{
		reg:       r,
		stolen:    r.Counter("dist_jobs_stolen_total", "jobs re-dispatched to a peer after their first backend failed, shed, or drained"),
		requeues:  r.Counter("dist_jobs_requeued_total", "dispatch attempts returned to the queue by a backend fault or shed"),
		fallbacks: r.Counter("dist_local_fallbacks_total", "jobs executed in-process because no backend was healthy"),
		etagHits:  r.Counter("dist_etag_hits_total", "re-dispatches answered 304 from the coordinator's own cached body"),
		integrity: r.Counter("dist_integrity_faults_total", "settled replies rejected by digest verification (corrupted in flight, never ingested)"),
		timeouts:  r.Counter("dist_timeout_faults_total", "dispatch attempts cut off by a per-attempt transport deadline"),
		healthy:   r.Gauge("dist_backends_healthy", "backends currently in dispatch rotation"),
		remote:    r.Phase("dist_remote_job"),
	}
}

// metricName flattens a backend URL into a metric-name-safe label.
func metricName(url string) string {
	url = strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, url)
}

// perBackend counts one event on a backend-labeled counter. Only a live
// registry formats the per-backend name.
func (t *distTelemetry) perBackend(b *backend, event, help string) {
	if t.reg == nil {
		return
	}
	t.reg.Counter(
		fmt.Sprintf("dist_backend_%s_%s_total", b.name, event),
		help+" on backend "+b.url,
	).Inc()
}

// stole counts a job re-dispatched to this backend after a peer lost it.
func (t *distTelemetry) stole(b *backend) {
	t.stolen.Inc()
	t.perBackend(b, "stolen", "jobs stolen from a failed or shedding peer")
}

// requeued counts a dispatch attempt returned to the queue.
func (t *distTelemetry) requeued(b *backend) {
	t.requeues.Inc()
	t.perBackend(b, "errors", "dispatch attempts that failed")
}

// quarantined counts a backend leaving rotation on a fault.
func (t *distTelemetry) quarantined(b *backend, healthy int) {
	t.perBackend(b, "quarantines", "times taken out of rotation by a fault")
	t.healthy.Set(float64(healthy))
}

// droppedBackend counts a backend removed permanently (version/key skew).
func (t *distTelemetry) droppedBackend(b *backend, healthy int) {
	t.perBackend(b, "dropped", "permanent removals for version or key skew")
	t.healthy.Set(float64(healthy))
}

// healed counts a quarantined backend re-entering rotation.
func (t *distTelemetry) healed(b *backend, healthy int) {
	t.perBackend(b, "heals", "probe-confirmed returns to rotation")
	t.healthy.Set(float64(healthy))
}

// integrityFault counts a reply rejected by digest verification.
func (t *distTelemetry) integrityFault(b *backend) {
	t.integrity.Inc()
	t.perBackend(b, "integrity_faults", "settled replies rejected by digest verification")
}

// timeoutFault counts a dispatch attempt ended by a transport deadline.
func (t *distTelemetry) timeoutFault(b *backend) {
	t.timeouts.Inc()
	t.perBackend(b, "timeout_faults", "dispatch attempts cut off by a transport deadline")
}

// etag counts a re-dispatch resolved 304 against the local cache.
func (t *distTelemetry) etag(b *backend) {
	t.etagHits.Inc()
	t.perBackend(b, "etag_hits", "re-dispatches answered 304")
}
