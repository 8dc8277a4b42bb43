package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"pcstall/internal/clock"
	"pcstall/internal/dist"
	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
	"pcstall/internal/serve"
	"pcstall/internal/telemetry"
)

// The fleet campaign: short no-truth jobs, so dispatch, the wire and the
// HTTP round trip carry a large share of each job.
var (
	fleetDesigns  = []string{"STATIC-1700", "CRISP", "PCSTALL"}
	fleetEpochsUs = []int64{1, 2, 4}
)

const (
	fleetBackends = 2
	// fleetMinReps and fleetMaxReps bound how many fresh-fleet campaigns
	// one run measures; between them it stops once --seconds have passed.
	fleetMinReps = 3
	fleetMaxReps = 50
)

// fleetJobs lists the campaign: every app × design × epoch, in the
// order the table prints them.
func fleetJobs() []orchestrate.Job {
	var jobs []orchestrate.Job
	for _, app := range fleetPlatform.apps {
		for _, d := range fleetDesigns {
			for _, e := range fleetEpochsUs {
				jobs = append(jobs, orchestrate.Job{
					App: app, Design: d, EpochPs: e * int64(clock.Microsecond),
					Objective: dvfs.ED2P.Name(), CUsPerDomain: 1,
					CUs: fleetPlatform.cus, Scale: fleetPlatform.scale, Seed: simSeed,
					MaxTimePs:  int64(20 * clock.Millisecond),
					SimVersion: orchestrate.SimVersion,
				})
			}
		}
	}
	return jobs
}

// fleet is two in-process pcstall-serve backends with one worker each
// and the dist coordinator in front of them.
type fleet struct {
	backends []*simServer
	d        *dist.Dispatcher
}

// newFleet starts the backends and admits them through the
// coordinator's version check.
func newFleet(l *layers) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < fleetBackends; i++ {
		suite := exp.NewSuite(exp.Config{
			CUs: fleetPlatform.cus, Scale: fleetPlatform.scale, Seed: 1,
			Workers: 1, NoCache: true, RunVia: l.runVia(fleetPlatform.cus),
		})
		srv, err := serve.New(serve.Config{Backend: l.backend(suite), Defaults: suite.SimDefaults(), Workers: 1})
		if err != nil {
			suite.Close()
			return nil, errors.Join(err, f.close())
		}
		s, err := listen(suite, srv, l)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		f.backends = append(f.backends, s)
		urls = append(urls, s.base)
	}
	d, err := dist.New(dist.Config{Backends: urls, Window: 1, LocalWorkers: 1})
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	f.d = d
	if err := d.CheckVersions(context.Background()); err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

func (f *fleet) close() error {
	if f.d != nil {
		f.d.Close()
	}
	var err error
	for _, b := range f.backends {
		err = errors.Join(err, b.close())
	}
	return err
}

// campaign runs jobs through a fresh coordinator-side orchestrator whose
// RunFunc is the fleet dispatcher. A job that falls back to the local
// lane fails: the benchmark measures the fleet path.
func (f *fleet) campaign(l *layers, jobs []orchestrate.Job) ([]*dvfs.Result, *orchestrate.Manifest, orchestrate.Stats, error) {
	var orch *orchestrate.Orchestrator
	local := func(_ context.Context, j orchestrate.Job, _ *telemetry.Registry) (*dvfs.Result, error) {
		return nil, fmt.Errorf("job %s fell back to the local lane", j)
	}
	cached := func(key string) (*dvfs.Result, bool) { return orch.Cached(key) }
	orch, err := orchestrate.New(orchestrate.Config{Workers: workers, NoCache: true, Run: l.dispatch(f.d.Bind(local, cached))})
	if err != nil {
		return nil, nil, orchestrate.Stats{}, err
	}
	defer orch.Close()
	l.markBatch()
	res, err := orch.RunJobs(context.Background(), jobs)
	st := orch.Stats()
	if err == nil {
		err = l.timeHits(orch.RunJob, jobs[:min(64, len(jobs))])
	}
	return res, orch.Manifest(), st, err
}

// fleetTable renders the campaign's results, one line per job, for the
// byte comparison with the reference.
func fleetTable(jobs []orchestrate.Job, res []*dvfs.Result) string {
	var b strings.Builder
	for i, j := range jobs {
		r := res[i]
		fmt.Fprintf(&b, "%s %s %dps time_s=%v energy_j=%v committed=%d epochs=%d accuracy=%v transitions=%d\n",
			j.App, j.Design, j.EpochPs, r.Totals.TimeS, r.Totals.EnergyJ, r.Totals.Committed,
			r.Epochs, r.Accuracy, r.Transitions)
	}
	return b.String()
}

// runFleet runs the campaign on a fresh fleet repeatedly until --seconds
// have passed (fleetMinReps at least) and reports per-campaign medians.
// The seed shuffles the order jobs are submitted in.
func runFleet(o options, l *layers) (*outcome, error) {
	table := fleetJobs()
	perm := rand.New(rand.NewPCG(o.seed, 0xf1ee7)).Perm(len(table))
	jobs := make([]orchestrate.Job, len(table))
	for i, p := range perm {
		jobs[i] = table[p]
	}
	out := &outcome{}
	var walls []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for rep := 0; rep < fleetMaxReps && (rep < fleetMinReps || time.Now().Before(deadline)); rep++ {
		l.reset()
		start := time.Now()
		f, err := newFleet(l)
		if err != nil {
			return nil, fmt.Errorf("fleet set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(start))
		start = time.Now()
		res, m, st, err := f.campaign(l, jobs)
		wall := time.Since(start)
		if cerr := f.close(); cerr != nil {
			return nil, fmt.Errorf("fleet shutdown: %w", cerr)
		}
		out.attempted += len(jobs)
		if err != nil {
			out.failed += len(jobs)
			out.checkf("campaign %d: %v", rep, err)
			continue
		}
		walls = append(walls, wall.Seconds())
		out.goodWall += wall
		out.good += len(jobs)
		for _, e := range m.Jobs {
			if e.DurationMS > 0 {
				d := time.Duration(e.DurationMS * float64(time.Millisecond))
				out.latencies = append(out.latencies, d)
				out.coldLatencies = append(out.coldLatencies, d)
			}
		}
		inOrder := make([]*dvfs.Result, len(res))
		for i, p := range perm {
			inOrder[p] = res[i]
		}
		compareRef(out, o, "fleet.txt", fleetTable(table, inOrder))
		l.pool(st, wall, fleetBackends)
	}
	out.campaign = time.Duration(median(walls) * float64(time.Second))
	out.rssMB = maxRSSMB()
	return out, nil
}
