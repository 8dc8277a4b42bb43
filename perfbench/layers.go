package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"pcstall/internal/chaos"
	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
	"pcstall/internal/power"
	"pcstall/internal/serve"
	"pcstall/internal/sim"
	"pcstall/internal/telemetry"
	"pcstall/internal/workload"
)

// classHeader tags each benchmark request with its traffic class (cold,
// collide, hot, setup) so the traced handler timing can split by class.
// The server ignores it.
const classHeader = "X-Bench-Class"

// layers records spans around the calls the benchmark makes into each
// module, through seams the program already has: exp.Config.RunVia, a
// wrapping serve.Backend, a wrapping dvfs.Policy, a middleware around
// serve.Server.Handler, and a wrapper around the fleet's RunFunc. A nil
// *layers is the untraced pass: every wrap helper then returns its
// argument unchanged.
type layers struct {
	mu sync.Mutex
	// jobs are executions of the traced RunFunc.
	jobs []jobSpan
	// runSims are serve.Backend.RunSim calls, by job key; runSimCalls
	// counts them.
	runSims     map[string]span
	runSimCalls int
	// cachedCalls and cachedHits count serve.Backend.Cached peeks.
	cachedCalls, cachedHits int
	// reqs are POST /v1/sim handler spans.
	reqs []reqSpan
	// dispatches are the fleet coordinator's RunFunc calls.
	dispatches []span
	// batches are the times figure batches were submitted.
	batches []time.Time
	// hits are the durations of orchestrator memo-hit RunJob calls.
	hits []time.Duration
	// The orchestrator pools the jobs ran on: submissions, memo and disk
	// hits, summed wall time, and workers per pool.
	submissions, memoHits int
	wall                  time.Duration
	workers               int
}

type span struct {
	key   string
	start time.Time
	dur   time.Duration
}

type jobSpan struct {
	span
	truth   bool
	epochPs int64
	// build is workload.Build plus sim.New; run is dvfs.Run.
	build, run, decide time.Duration
	epochs             int
}

type reqSpan struct {
	span
	class string
	code  int
}

func newLayers() *layers {
	return &layers{runSims: map[string]span{}}
}

// reset drops everything recorded so far. A workload that builds its
// system several times resets before each build, so the traced numbers
// describe the one system it measures.
func (l *layers) reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs, l.runSims, l.runSimCalls = nil, map[string]span{}, 0
	l.cachedCalls, l.cachedHits = 0, 0
	l.reqs, l.dispatches, l.batches, l.hits = nil, nil, nil, nil
	l.submissions, l.memoHits, l.wall = 0, 0, 0
}

// runVia is the exp.Config.RunVia seam: the Suite's jobs run through a
// traced executor that mirrors exp.Suite's own step for step and times
// the build, dvfs.Run and every policy decision. The reference tables
// and the sim-cold spot check hold its results to the untraced
// executor's bytes.
func (l *layers) runVia(cus int) func(orchestrate.RunFunc, func(string) (*dvfs.Result, bool)) orchestrate.RunFunc {
	if l == nil {
		return nil
	}
	pm := power.DefaultModelFor(cus)
	return func(orchestrate.RunFunc, func(string) (*dvfs.Result, bool)) orchestrate.RunFunc {
		return func(ctx context.Context, j orchestrate.Job, reg *telemetry.Registry) (*dvfs.Result, error) {
			return l.exec(ctx, j, reg, &pm)
		}
	}
}

func (l *layers) exec(ctx context.Context, j orchestrate.Job, reg *telemetry.Registry, pm *power.Model) (*dvfs.Result, error) {
	start := time.Now()
	d, err := core.DesignByName(j.Design)
	if err != nil {
		return nil, err
	}
	obj, err := exp.ObjectiveByName(j.Objective)
	if err != nil {
		return nil, err
	}
	chaosCfg, err := chaos.Parse(j.Chaos)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dvfs: job cancelled before start: %w", err)
	}
	epoch := clock.Time(j.EpochPs)
	scale := j.Scale
	if boost := float64(epoch) / float64(8*clock.Microsecond); boost > 1 {
		scale *= min(boost, 12)
	}
	t0 := time.Now()
	g, err := buildGPU(j.App, j.CUs, j.CUsPerDomain, j.Seed, scale)
	if err != nil {
		return nil, err
	}
	build := time.Since(t0)
	pol := &timedPolicy{Policy: d.New()}
	t1 := time.Now()
	res, err := dvfs.Run(g, pol, dvfs.RunConfig{
		Epoch:         epoch,
		Obj:           obj,
		PM:            pm,
		MaxTime:       clock.Time(j.MaxTimePs),
		OracleSamples: j.OracleSamples,
		Chaos:         chaosCfg,
		MaxCycles:     j.MaxCycles,
		Metrics:       reg,
		Ctx:           ctx,
	})
	run := time.Since(t1)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.jobs = append(l.jobs, jobSpan{
		span:  span{key: j.Key(), start: start, dur: time.Since(start)},
		truth: pol.Truth() != dvfs.NoTruth, epochPs: j.EpochPs,
		build: build, run: run, decide: pol.decide, epochs: pol.calls,
	})
	l.mu.Unlock()
	return &res, nil
}

// buildGPU builds a fresh simulator for one app the way exp.Suite does.
func buildGPU(app string, cus, cusPerDomain int, seed uint64, scale float64) (*sim.GPU, error) {
	cfg := sim.DefaultConfig(cus)
	cfg.Seed = seed
	cfg.Domains.CUsPerDomain = cusPerDomain
	gen := workload.DefaultGenConfig(cus)
	gen.Scale = scale
	gen.Seed = seed + 6
	a, err := workload.Build(app, gen)
	if err != nil {
		return nil, err
	}
	g, err := sim.New(cfg, a.Kernels, a.Launches)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", app, err)
	}
	return g, nil
}

// timedPolicy times every Decide call of the policy it wraps. dvfs.Run
// calls Decide once per epoch, so calls is also the run's epoch count.
type timedPolicy struct {
	dvfs.Policy
	decide time.Duration
	calls  int
}

func (p *timedPolicy) Decide(ctx *dvfs.Context, elapsed *sim.EpochSample, obj dvfs.Objective, pred [][]float64, choice []int) {
	t := time.Now()
	p.Policy.Decide(ctx, elapsed, obj, pred, choice)
	p.decide += time.Since(t)
	p.calls++
}

// timedBackend times RunSim and counts Cached peeks of the serve.Backend
// it wraps.
type timedBackend struct {
	serve.Backend
	l *layers
}

func (l *layers) backend(b serve.Backend) serve.Backend {
	if l == nil {
		return b
	}
	return &timedBackend{Backend: b, l: l}
}

func (b *timedBackend) RunSim(ctx context.Context, j orchestrate.Job) (*dvfs.Result, error) {
	start := time.Now()
	res, err := b.Backend.RunSim(ctx, j)
	dur := time.Since(start)
	b.l.mu.Lock()
	b.l.runSims[j.Key()] = span{key: j.Key(), start: start, dur: dur}
	b.l.runSimCalls++
	b.l.mu.Unlock()
	return res, err
}

func (b *timedBackend) Cached(key string) (*dvfs.Result, bool) {
	res, ok := b.Backend.Cached(key)
	b.l.mu.Lock()
	b.l.cachedCalls++
	if ok {
		b.l.cachedHits++
	}
	b.l.mu.Unlock()
	return res, ok
}

// handler times every POST /v1/sim request through h and keys it by the
// ETag (the job key) the server set on the response.
func (l *layers) handler(h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sim" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(cw, r)
		dur := time.Since(start)
		class := r.Header.Get(classHeader)
		if class == "" {
			class = "cold"
		}
		key := strings.Trim(w.Header().Get("ETag"), `"`)
		l.mu.Lock()
		l.reqs = append(l.reqs, reqSpan{span: span{key: key, start: start, dur: dur}, class: class, code: cw.code})
		l.mu.Unlock()
	})
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// dispatch times the fleet coordinator's RunFunc.
func (l *layers) dispatch(run orchestrate.RunFunc) orchestrate.RunFunc {
	if l == nil {
		return run
	}
	return func(ctx context.Context, j orchestrate.Job, reg *telemetry.Registry) (*dvfs.Result, error) {
		start := time.Now()
		res, err := run(ctx, j, reg)
		dur := time.Since(start)
		l.mu.Lock()
		l.dispatches = append(l.dispatches, span{key: j.Key(), start: start, dur: dur})
		l.mu.Unlock()
		return res, err
	}
}

// markBatch records that a batch of jobs (one figure) is being submitted.
func (l *layers) markBatch() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.batches = append(l.batches, time.Now())
	l.mu.Unlock()
}

// pool adds the cache accounting and wall time of one orchestrator pool
// the traced jobs ran on (a workload may run several in sequence).
func (l *layers) pool(st orchestrate.Stats, wall time.Duration, workers int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submissions += st.Submissions
	l.memoHits += st.MemHits + st.DiskHits
	l.wall += wall
	l.workers = workers
}

// timeHits times RunJob on jobs the orchestrator has already settled:
// each call is a memo hit.
func (l *layers) timeHits(runJob func(context.Context, orchestrate.Job) (*dvfs.Result, error), jobs []orchestrate.Job) error {
	if l == nil {
		return nil
	}
	for _, j := range jobs {
		start := time.Now()
		if _, err := runJob(context.Background(), j); err != nil {
			return fmt.Errorf("memo hit on %s: %w", j, err)
		}
		l.hits = append(l.hits, time.Since(start))
	}
	return nil
}

// perLayer turns the recorded spans, the direct sim and oracle calls,
// and the traced pass's own outcome into the per-layer metrics.
func (l *layers) perLayer(mb microStats, traced *outcome) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := map[string]float64{
		"sim.run_until_us":      mb.runUntilUs,
		"sim.collect_us":        mb.collectUs,
		"sim.clone_us":          mb.cloneUs,
		"oracle.sample_next_ms": mb.sampleNextMs,
	}

	// dvfs and sim.build, from the traced executor.
	var builds, truthRuns, plainRuns []float64
	var runTotal, decideTotal time.Duration
	epochs, truthEpochs := 0, 0
	// dvfs.Run calls SampleNext once per epoch of a truth-needing policy
	// and RunUntil plus CollectEpoch once per epoch of every policy. Their
	// costs come from the direct 1µs-epoch calls on the same apps, scaled
	// by each job's epoch length.
	var oracleMs, simMs float64
	jobByKey := map[string]jobSpan{}
	for _, j := range l.jobs {
		jobByKey[j.key] = j
		builds = append(builds, ms(j.build))
		epochUs := float64(j.epochPs) / 1e6
		if j.truth {
			truthRuns = append(truthRuns, ms(j.run))
			truthEpochs += j.epochs
			oracleMs += float64(j.epochs) * epochUs * mb.sampleNextMs
		} else {
			plainRuns = append(plainRuns, ms(j.run))
		}
		simMs += float64(j.epochs) * (epochUs*mb.runUntilUs + mb.collectUs) / 1e3
		runTotal += j.run
		decideTotal += j.decide
		epochs += j.epochs
	}
	v["sim.build_ms"] = mean(builds)
	v["dvfs.run_ms.truth"] = mean(truthRuns)
	v["dvfs.run_ms.notruth"] = mean(plainRuns)
	v["dvfs.epochs"] = float64(epochs)
	v["oracle.calls"] = float64(truthEpochs)
	if epochs > 0 {
		v["dvfs.decide_us"] = us(decideTotal) / float64(epochs)
	}
	if runTotal > 0 {
		total := ms(runTotal)
		v["oracle.share"] = oracleMs / total
		v["dvfs.other_share"] = (total - oracleMs - simMs - ms(decideTotal)) / total
	}

	// orchestrate.
	var missOver, queueWait []float64
	var busy time.Duration
	for _, j := range l.jobs {
		busy += j.dur
		if rs, ok := l.runSims[j.key]; ok {
			missOver = append(missOver, us(rs.dur-j.dur))
			queueWait = append(queueWait, ms(j.start.Sub(rs.start)))
		} else if b, ok := lastBefore(l.batches, j.start); ok {
			queueWait = append(queueWait, ms(j.start.Sub(b)))
		}
	}
	v["orchestrate.miss_overhead_us"] = mean(missOver)
	v["orchestrate.queue_wait_ms"] = mean(queueWait)
	hits := make([]float64, len(l.hits))
	for i, h := range l.hits {
		hits[i] = us(h)
	}
	v["orchestrate.hit_us"] = median(hits)
	if l.submissions > 0 {
		v["orchestrate.hit_frac"] = float64(l.memoHits) / float64(l.submissions)
	}
	if l.wall > 0 && l.workers > 0 {
		v["orchestrate.busy_frac"] = seconds(busy) / (seconds(l.wall) * float64(l.workers))
	}

	// serve.
	var coldH, hotH, admit, self, selfParts []float64
	valid, notMod, shed := 0, 0, 0
	handlerByKey := map[string]reqSpan{}
	for _, r := range l.reqs {
		switch r.code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			continue
		case http.StatusNotModified:
			notMod++
		case http.StatusTooManyRequests:
			shed++
		}
		valid++
		if r.code != http.StatusOK {
			continue
		}
		handlerByKey[r.key] = r
		switch r.class {
		case "cold":
			coldH = append(coldH, ms(r.dur))
			if rs, ok := l.runSims[r.key]; ok {
				admit = append(admit, ms(rs.start.Sub(r.start)))
				self = append(self, ms(r.dur-rs.dur))
				if j, ok := jobByKey[r.key]; ok {
					// The request's layer sum: serve self time, the
					// orchestrator's miss overhead, the build and dvfs.Run.
					selfParts = append(selfParts, ms(r.dur-rs.dur)+ms(rs.dur-j.dur)+ms(j.build)+ms(j.run))
				}
			}
		case "hot":
			hotH = append(hotH, ms(r.dur))
		}
	}
	runs := l.runSimCalls
	joins := l.cachedCalls - l.cachedHits - shed - runs
	v["serve.handler_ms.cold"] = mean(coldH)
	v["serve.handler_ms.hot"] = mean(hotH)
	v["serve.admit_wait_ms"] = mean(admit)
	v["serve.self_ms.cold"] = mean(self)
	v["serve.backend_runs"] = float64(runs)
	v["serve.hot_hits"] = float64(valid - l.cachedCalls)
	v["serve.short_circuits"] = float64(l.cachedHits)
	v["serve.not_modified"] = float64(notMod)
	v["serve.shed"] = float64(shed)
	if joins+runs > 0 {
		v["serve.dedup_ratio"] = float64(joins) / float64(joins+runs)
	}

	// dist.
	var jobMs, over []float64
	for _, d := range l.dispatches {
		jobMs = append(jobMs, ms(d.dur))
		if r, ok := handlerByKey[d.key]; ok {
			over = append(over, ms(d.dur-r.dur))
		}
	}
	v["dist.job_ms"] = mean(jobMs)
	v["dist.overhead_ms"] = mean(over)

	// load.
	if len(traced.lags) > 0 {
		v["load.lag_p99_ms"] = ms(traced.lagP99())
		v["load.sent"] = float64(len(traced.lags))
	}

	// Reconciliation: cold requests' layer sum against their handler
	// time, and the handler time against the same requests' end-to-end
	// latency as the client saw it.
	if len(selfParts) > 0 && len(coldH) > 0 {
		sum := mean(selfParts)
		v["recon.layer_sum_ms"] = sum
		v["recon.layer_gap_frac"] = (mean(coldH) - sum) / mean(coldH)
		e2e := make([]float64, len(traced.coldLatencies))
		for i, d := range traced.coldLatencies {
			e2e[i] = ms(d)
		}
		v["recon.client_gap_ms"] = mean(e2e) - mean(coldH)
	}
	// Campaigns (the workloads that submit batches): job wall divided by
	// workers against the campaign wall.
	if l.batches != nil && l.workers > 0 && l.wall > 0 {
		perWorker := seconds(busy) / float64(l.workers)
		v["recon.job_wall_per_worker_s"] = perWorker
		v["recon.campaign_gap_frac"] = (seconds(l.wall) - perWorker) / seconds(l.wall)
	}
	return v
}

// report prints the traced run's reconciliation with its named gaps.
func (l *layers) report(w io.Writer, name string, v, te2e map[string]float64) {
	fmt.Fprintf(w, "perfbench: %s traced: oracle.share %.3f of dvfs time (%d SampleNext calls at %.3f ms), dvfs.other_share %.3f\n",
		name, v["oracle.share"], int(v["oracle.calls"]), v["oracle.sample_next_ms"], v["dvfs.other_share"])
	if sum := v["recon.layer_sum_ms"]; sum > 0 {
		h := v["serve.handler_ms.cold"]
		fmt.Fprintf(w, "perfbench: %s layer sum: serve.self %.3f ms (admission wait %.3f) + orchestrate.miss %.3f ms + sim.build %.3f ms + dvfs.run %.3f ms = %.3f ms against handler %.3f ms (gap %.1f%%: design lookup and executor bookkeeping)\n",
			name, v["serve.self_ms.cold"], v["serve.admit_wait_ms"], v["orchestrate.miss_overhead_us"]/1e3,
			v["sim.build_ms"], v["dvfs.run_ms.notruth"], sum, h, 100*v["recon.layer_gap_frac"])
		fmt.Fprintf(w, "perfbench: %s cold requests: client-side latency exceeds the handler time by %.3f ms on average (HTTP round trip, client connection wait, generator lag, dispatch); sim_p50_ms over all requests %.3f\n",
			name, v["recon.client_gap_ms"], te2e["sim_p50_ms"])
	}
	if pw := v["recon.job_wall_per_worker_s"]; pw > 0 {
		fmt.Fprintf(w, "perfbench: %s job wall / workers %.3f s against campaign wall %.3f s (gap %.1f%%: idle worker slots at batch tails, serial memo hits, dispatch and table rendering; busy_frac %.3f)\n",
			name, pw, seconds(l.wall), 100*v["recon.campaign_gap_frac"], v["orchestrate.busy_frac"])
	}
}

// lastBefore returns the latest time in ts (ascending) not after t.
func lastBefore(ts []time.Time, t time.Time) (time.Time, bool) {
	for i := len(ts) - 1; i >= 0; i-- {
		if !ts[i].After(t) {
			return ts[i], true
		}
	}
	return time.Time{}, false
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
