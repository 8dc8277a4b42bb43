package orchestrate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"pcstall/internal/telemetry"
)

// ManifestEntry records one unique job of a campaign: its content
// address, full description, where the result came from, and how long it
// took to compute (zero for cache hits).
type ManifestEntry struct {
	Key string `json:"key"`
	Job Job    `json:"job"`
	// Source is "run" (computed this campaign), "disk" (loaded from the
	// cache directory), or a provenance string a dispatching RunFunc
	// recorded via SetJobSource — "remote:<backend>" for results ingested
	// from a pcstall-serve worker, "local-fallback" for the distributed
	// coordinator's degraded lane. In-process duplicate submissions never
	// add an entry; they are counted in the aggregate MemHits.
	Source string `json:"source"`
	// DurationMS is the job's wall-clock compute time (0 when cached).
	DurationMS float64 `json:"duration_ms"`
	// Faults lists the dispatch faults this job survived before settling
	// (AddJobFault) — "integrity:<backend>", "timeout:<backend>",
	// "shed:<backend>", "skew:<backend>", "error:<backend>" — in the
	// order they occurred. Absent on clean runs, so fault-free campaign
	// manifests are byte-identical to those of earlier builds.
	Faults []string `json:"faults,omitempty"`
	// Error records why a computed job settled without a result (timeout,
	// recovered panic, exhausted retries). Cancelled jobs never appear in
	// the manifest at all: they are forgotten so a resumed campaign
	// recomputes them.
	Error string `json:"error,omitempty"`
	// Metrics is the job's private telemetry snapshot (simulation
	// counters, prediction error, oracle fork costs), present only for
	// computed jobs in campaigns with Config.Metrics attached.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
	// TraceID correlates this entry with the job's distributed trace
	// (internal/tracing): the same ID keys /debug/traces on every process
	// the job touched and the -trace-out Chrome export. Empty when the
	// campaign ran untraced.
	TraceID string `json:"trace_id,omitempty"`
}

// Manifest is the auditable record of one campaign (one Orchestrator
// lifetime): every unique job with its hash and timing, aggregate cache
// accounting, and the pool shape that produced the results.
type Manifest struct {
	SimVersion string `json:"sim_version"`
	CreatedAt  string `json:"created_at"`
	Workers    int    `json:"workers"`
	// Submissions counts every job submission, including duplicates that
	// were answered by the in-process memo.
	Submissions int `json:"submissions"`
	// UniqueJobs is len(Jobs).
	UniqueJobs int `json:"unique_jobs"`
	// MemHits counts submissions answered by the in-process memo,
	// DiskHits those answered by the cache directory, and Misses those
	// that ran a simulation.
	MemHits  int `json:"mem_hits"`
	DiskHits int `json:"disk_hits"`
	Misses   int `json:"misses"`
	// JobTimeMS sums per-job compute time; WallMS is campaign wall time.
	// Their ratio is the realized parallel speedup over the pool.
	JobTimeMS float64 `json:"job_time_ms"`
	WallMS    float64 `json:"wall_ms"`
	// Jobs lists unique jobs sorted by key for stable diffs.
	Jobs []ManifestEntry `json:"jobs"`
	// Metrics is the campaign-global registry snapshot at manifest time
	// (merged per-job snapshots plus live pool metrics), present when
	// the orchestrator was built with Config.Metrics.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
}

// HitRate returns the fraction of submissions answered by either cache
// layer (0 when nothing was submitted).
func (m *Manifest) HitRate() float64 {
	if m.Submissions == 0 {
		return 0
	}
	return float64(m.MemHits+m.DiskHits) / float64(m.Submissions)
}

// Manifest snapshots the campaign so far. Jobs are sorted by key, so two
// identical campaigns produce byte-identical manifests up to timings.
func (o *Orchestrator) Manifest() *Manifest {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := &Manifest{
		SimVersion:  SimVersion,
		CreatedAt:   o.created.UTC().Format(time.RFC3339),
		Workers:     o.workers,
		Submissions: o.submissions,
		UniqueJobs:  len(o.entries),
		MemHits:     o.memHits,
		DiskHits:    o.diskHits,
		Misses:      o.misses,
		JobTimeMS:   float64(o.jobTime) / float64(time.Millisecond),
		WallMS:      float64(time.Since(o.created)) / float64(time.Millisecond),
		Jobs:        append([]ManifestEntry(nil), o.entries...),
	}
	sort.Slice(m.Jobs, func(a, b int) bool { return m.Jobs[a].Key < m.Jobs[b].Key })
	if o.tele.reg != nil {
		snap := o.tele.reg.Snapshot()
		m.Metrics = &snap
	}
	return m
}

// WriteManifest writes the campaign manifest as indented JSON to path.
func (o *Orchestrator) WriteManifest(path string) error {
	b, err := json.MarshalIndent(o.Manifest(), "", "  ")
	if err != nil {
		return fmt.Errorf("orchestrate: encoding manifest: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("orchestrate: writing manifest: %w", err)
	}
	return nil
}
