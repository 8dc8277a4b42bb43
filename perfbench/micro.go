package main

import (
	"time"

	"pcstall/internal/clock"
	"pcstall/internal/oracle"
	"pcstall/internal/power"
	"pcstall/internal/sim"
	"pcstall/internal/workload"
)

// platform is the simulated GPU a workload runs its apps on.
type platform struct {
	apps  []string
	cus   int
	scale float64
}

var (
	figuresPlatform = platform{apps: workload.Names(), cus: 4, scale: 0.25}
	servePlatform   = platform{apps: []string{"comd", "hpgmg"}, cus: 4, scale: 0.3}
	fleetPlatform   = platform{apps: workload.Names(), cus: 2, scale: 0.5}
)

// microEpochs bounds the epochs stepped directly, across all apps of a
// platform; every sampleEvery-th epoch is also cloned and sampled.
const (
	microEpochs = 512
	sampleEvery = 4
)

// microStats are mean per-call costs of direct sim and oracle calls.
type microStats struct {
	runUntilUs, collectUs, cloneUs, sampleNextMs float64
}

// microbench steps each app of p through 1µs epochs at the paper's
// per-CU V/f domains, timing RunUntil, CollectEpoch, Clone and the
// oracle's SampleNext (per-domain truth, one fork per V/f state) on the
// live GPU. These are the per-call costs dvfs.Run pays per epoch.
func microbench(p platform) microStats {
	pm := power.DefaultModelFor(p.cus)
	perApp := max(microEpochs/len(p.apps), 8)
	var runUntil, collect, clone, sample time.Duration
	var nRun, nSample int
	for _, app := range p.apps {
		g, err := buildGPU(app, p.cus, 1, 1, p.scale)
		if err != nil {
			continue
		}
		smp := &oracle.Sampler{Grid: g.Cfg.Grid, PM: &pm}
		var es sim.EpochSample
		for e := 0; e < perApp && !g.Finished; e++ {
			if e%sampleEvery == 0 {
				t := time.Now()
				c := g.Clone()
				clone += time.Since(t)
				c.Release()
				t = time.Now()
				smp.SampleNext(g, clock.Microsecond)
				sample += time.Since(t)
				nSample++
			}
			t := time.Now()
			g.RunUntil(g.Now + clock.Microsecond)
			runUntil += time.Since(t)
			t = time.Now()
			g.CollectEpoch(&es)
			collect += time.Since(t)
			nRun++
		}
	}
	if nRun == 0 || nSample == 0 {
		return microStats{}
	}
	return microStats{
		runUntilUs:   us(runUntil) / float64(nRun),
		collectUs:    us(collect) / float64(nRun),
		cloneUs:      us(clone) / float64(nSample),
		sampleNextMs: ms(sample) / float64(nSample),
	}
}
