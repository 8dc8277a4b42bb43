package exp

import (
	"fmt"

	"pcstall/internal/clock"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/estimate"
	"pcstall/internal/metrics"
)

// Ablation studies for the design choices DESIGN.md calls out. Each
// sweeps one PCSTALL parameter while holding the paper defaults for the
// rest, and reports mean prediction accuracy (and, where relevant, table
// hit ratio and geomean normalized ED²P) over the configured workloads.

// ablApps returns a representative subset used by ablations (full suite
// runs are reserved for the paper figures).
func (s *Suite) ablApps() []string {
	subset := []string{"comd", "xsbench", "hacc", "dgemm", "BwdBN", "quickS"}
	have := map[string]bool{}
	for _, a := range s.Cfg.Apps {
		have[a] = true
	}
	out := subset[:0]
	for _, a := range subset {
		if have[a] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = s.Cfg.Apps
	}
	return out
}

// prefetchBase batches the STATIC-1700 normalization runs the ablation
// rows divide by, so they compute in parallel before the (serial,
// policy-state-reading) custom runs start.
func (s *Suite) prefetchBase(apps []string) {
	cells := make([]cell, len(apps))
	for i, app := range apps {
		cells[i] = cell{app, "STATIC-1700", clock.Microsecond, "ED2P", 1, 0}
	}
	s.prefetch(cells)
}

// runCustom runs one app under a custom-configured policy. Uncached and
// deliberately outside the orchestrator: callers read learned state (hit
// ratios) off the policy afterwards, so the run cannot be keyed by a
// design name or shared.
func (s *Suite) runCustom(_, app string, pol func() dvfs.Policy) *dvfs.Result {
	res, err := dvfs.RunJob(s.gpuJob(app), pol, dvfs.RunConfig{
		Epoch:   clock.Microsecond,
		Obj:     dvfs.ED2P,
		PM:      &s.PM,
		MaxTime: s.Cfg.MaxTime,
	})
	if err != nil {
		panic(err)
	}
	return &res
}

func (s *Suite) ablRow(t *Table, label string, pol func() *dvfs.PCStall) {
	apps := s.ablApps()
	s.prefetchBase(apps)
	var acc, ed []float64
	var hit float64
	for _, app := range apps {
		p := pol()
		r := s.runCustom(label, app, func() dvfs.Policy { return p })
		acc = append(acc, r.Accuracy)
		base := s.run(app, "STATIC-1700", clock.Microsecond, dvfs.ED2P, 1).Totals.ED2P()
		ed = append(ed, r.Totals.ED2P()/base)
		hit += p.HitRatio()
	}
	t.AddRow(label, 3, metrics.Mean(acc), hit/float64(len(apps)), metrics.Geomean(ed))
}

// AblTableSize sweeps the PC-table entry count — the paper picks 128
// entries for a 95%+ hit ratio (§4.4).
func (s *Suite) AblTableSize() *Table {
	t := &Table{
		ID:     "Ablation A1",
		Title:  "PCSTALL vs PC-table size (1us, ED2P)",
		Header: []string{"entries", "accuracy", "hit ratio", "norm ED2P"},
	}
	for _, entries := range []int{8, 16, 32, 64, 128, 256, 512} {
		e := entries
		s.ablRow(t, fmt.Sprintf("%d", e), func() *dvfs.PCStall {
			p := dvfs.NewPCStall()
			p.Cfg.Entries = e
			return p
		})
	}
	return t
}

// AblOffsetBits sweeps the PC index offset (paper Fig. 11b: degradation
// past 4 bits).
func (s *Suite) AblOffsetBits() *Table {
	t := &Table{
		ID:     "Ablation A2",
		Title:  "PCSTALL vs PC-table offset bits (1us, ED2P)",
		Header: []string{"offset bits", "accuracy", "hit ratio", "norm ED2P"},
	}
	for _, off := range []int{0, 2, 4, 6, 8} {
		o := off
		s.ablRow(t, fmt.Sprintf("%d", o), func() *dvfs.PCStall {
			p := dvfs.NewPCStall()
			p.Cfg.OffsetBits = o
			return p
		})
	}
	return t
}

// AblTableScope compares table sharing granularities (§4.4: accuracy is
// largely insensitive, enabling shared tables).
func (s *Suite) AblTableScope() *Table {
	t := &Table{
		ID:     "Ablation A3",
		Title:  "PCSTALL vs table sharing scope (1us, ED2P)",
		Header: []string{"scope", "accuracy", "hit ratio", "norm ED2P"},
	}
	for _, sc := range []struct {
		name  string
		scope dvfs.TableScope
	}{
		{"per-CU", dvfs.TablePerCU},
		{"per-domain", dvfs.TablePerDomain},
		{"global", dvfs.TableGlobal},
	} {
		scope := sc.scope
		s.ablRow(t, sc.name, func() *dvfs.PCStall {
			p := dvfs.NewPCStall()
			p.Scope = scope
			return p
		})
	}
	return t
}

// AblAgeCoef sweeps the scheduling-age normalization of the wavefront
// STALL estimate (§4.4, motivated by Fig. 11a).
func (s *Suite) AblAgeCoef() *Table {
	t := &Table{
		ID:     "Ablation A4",
		Title:  "PCSTALL vs age-normalization coefficient (1us, ED2P)",
		Header: []string{"age coef", "accuracy", "hit ratio", "norm ED2P"},
	}
	for _, c := range []float64{0, 0.15, 0.3, 0.6} {
		coef := c
		s.ablRow(t, fmt.Sprintf("%.2f", coef), func() *dvfs.PCStall {
			p := dvfs.NewPCStall()
			p.WFCfg = estimate.WFStallConfig{AgeCoef: coef}
			return p
		})
	}
	return t
}

// AblAlphaFallback sweeps the EWMA update weight and the reactive miss
// fallback.
func (s *Suite) AblAlphaFallback() *Table {
	t := &Table{
		ID:     "Ablation A5",
		Title:  "PCSTALL vs EWMA weight and miss fallback (1us, ED2P)",
		Header: []string{"variant", "accuracy", "hit ratio", "norm ED2P"},
	}
	for _, a := range []float64{0.2, 0.4, 1.0} {
		alpha := a
		s.ablRow(t, fmt.Sprintf("alpha=%.1f", alpha), func() *dvfs.PCStall {
			p := dvfs.NewPCStall()
			p.Cfg.Alpha = alpha
			return p
		})
	}
	s.ablRow(t, "no fallback", func() *dvfs.PCStall {
		p := dvfs.NewPCStall()
		p.Fallback = false
		return p
	})
	return t
}

// AblOracleSamples sweeps the fork-pre-execute sample count: the paper
// reports 97.6% methodology accuracy with one sample per V/f state
// (§5.1). Fewer samples interpolate and lose accuracy.
func (s *Suite) AblOracleSamples() *Table {
	t := &Table{
		ID:     "Ablation A6",
		Title:  "ORACLE accuracy vs fork-pre-execute sample count (1us)",
		Header: []string{"samples", "accuracy", "norm ED2P"},
	}
	apps := s.ablApps()
	sampleCounts := []int{1, 2, 3, 5, 10}
	var cells []cell
	for _, n := range sampleCounts {
		for _, app := range apps {
			cells = append(cells, cell{app, "ORACLE", clock.Microsecond, "ED2P", 1, n})
		}
	}
	for _, app := range apps {
		cells = append(cells, cell{app, "STATIC-1700", clock.Microsecond, "ED2P", 1, 0})
	}
	s.prefetch(cells)
	for _, n := range sampleCounts {
		var acc, ed []float64
		for _, app := range apps {
			r := s.runSampled(app, "ORACLE", clock.Microsecond, dvfs.ED2P, 1, n)
			acc = append(acc, r.Accuracy)
			base := s.run(app, "STATIC-1700", clock.Microsecond, dvfs.ED2P, 1).Totals.ED2P()
			ed = append(ed, r.Totals.ED2P()/base)
		}
		t.AddRow(fmt.Sprintf("%d", n), 3, metrics.Mean(acc), metrics.Geomean(ed))
	}
	return t
}

// AblEstimators crosses the four CU-level estimation models against the
// reactive controller at 1µs (the left half of Fig. 14 in one view) plus
// the wavefront-level STALL estimate under both reactive-style fallback
// use and the PC table, quantifying how much of PCSTALL's win comes from
// wavefront-level estimation versus PC-based prediction.
func (s *Suite) AblEstimators() *Table {
	t := &Table{
		ID:     "Ablation A7",
		Title:  "Estimation model x control mechanism (mean accuracy, 1us)",
		Header: []string{"design", "accuracy", "norm ED2P"},
	}
	apps := s.ablApps()
	var cells []cell
	for _, d := range []string{"STALL", "LEAD", "CRIT", "CRISP", "PCSTALL", "STATIC-1700"} {
		for _, app := range apps {
			cells = append(cells, cell{app, d, clock.Microsecond, "ED2P", 1, 0})
		}
	}
	s.prefetch(cells)
	addNamed := func(name string) {
		var acc, ed []float64
		for _, app := range apps {
			r := s.run(app, name, clock.Microsecond, dvfs.ED2P, 1)
			acc = append(acc, r.Accuracy)
			base := s.run(app, "STATIC-1700", clock.Microsecond, dvfs.ED2P, 1).Totals.ED2P()
			ed = append(ed, r.Totals.ED2P()/base)
		}
		t.AddRow(name+" (reactive)", 3, metrics.Mean(acc), metrics.Geomean(ed))
	}
	for _, n := range []string{"STALL", "LEAD", "CRIT", "CRISP"} {
		addNamed(n)
	}
	// Wavefront STALL + PC table = PCSTALL.
	var acc, ed []float64
	for _, app := range apps {
		r := s.run(app, "PCSTALL", clock.Microsecond, dvfs.ED2P, 1)
		acc = append(acc, r.Accuracy)
		base := s.run(app, "STATIC-1700", clock.Microsecond, dvfs.ED2P, 1).Totals.ED2P()
		ed = append(ed, r.Totals.ED2P()/base)
	}
	t.AddRow("WF-STALL + PC table (PCSTALL)", 3, metrics.Mean(acc), metrics.Geomean(ed))
	return t
}

// Extensions compares PCSTALL against the alternative predictor families
// of the paper's related-work survey (§2.4): a global phase-history table
// (HIST) and a Q-learning governor (QLEARN). QLEARN fuses prediction and
// selection, so only its ED²P column is meaningful.
func (s *Suite) Extensions() *Table {
	t := &Table{
		ID:     "Extension E1",
		Title:  "PCSTALL vs related-work predictor families (1us, ED2P)",
		Header: []string{"design", "accuracy", "norm ED2P"},
	}
	apps := s.ablApps()
	names := []string{"CRISP", "HIST", "QLEARN", "PCSTALL", "ORACLE"}
	var cells []cell
	for _, d := range append([]string{"STATIC-1700"}, names...) {
		for _, app := range apps {
			cells = append(cells, cell{app, d, clock.Microsecond, "ED2P", 1, 0})
		}
	}
	s.prefetch(cells)
	for _, name := range names {
		var acc, ed []float64
		for _, app := range apps {
			r := s.run(app, name, clock.Microsecond, dvfs.ED2P, 1)
			acc = append(acc, r.Accuracy)
			base := s.run(app, "STATIC-1700", clock.Microsecond, dvfs.ED2P, 1).Totals.ED2P()
			ed = append(ed, r.Totals.ED2P()/base)
		}
		t.AddRow(name, 3, metrics.Mean(acc), metrics.Geomean(ed))
	}
	return t
}

// AblEpochMode compares fixed-time epochs against fixed-instruction
// windows of equal average length — the §3.1 design argument: at GPU
// instruction-rate variance, instruction windows either miss productive
// transitions or transition unproductively.
func (s *Suite) AblEpochMode() *Table {
	t := &Table{
		ID:     "Ablation A8",
		Title:  "Fixed-time epochs vs fixed-instruction windows (PCSTALL, ED2P)",
		Header: []string{"app", "time ED2P", "instr ED2P", "time eps", "instr eps"},
	}
	d, err := core.DesignByName("PCSTALL")
	if err != nil {
		panic(err)
	}
	var cells []cell
	for _, app := range s.ablApps() {
		cells = append(cells,
			cell{app, "STATIC-1700", clock.Microsecond, "ED2P", 1, 0},
			cell{app, "PCSTALL", clock.Microsecond, "ED2P", 1, 0})
	}
	s.prefetch(cells)
	for _, app := range s.ablApps() {
		base := s.run(app, "STATIC-1700", clock.Microsecond, dvfs.ED2P, 1).Totals.ED2P()
		timeRun := s.run(app, "PCSTALL", clock.Microsecond, dvfs.ED2P, 1)
		// Match the window to the fixed-time run's average work per epoch.
		window := timeRun.Totals.Committed / int64(timeRun.Epochs)
		if window < 1 {
			window = 1
		}
		instrRun, err := dvfs.RunJob(s.gpuJob(app), d.New, dvfs.RunConfig{
			Epoch:       clock.Microsecond,
			Obj:         dvfs.ED2P,
			PM:          &s.PM,
			MaxTime:     s.Cfg.MaxTime,
			InstrWindow: window,
		})
		if err != nil {
			panic(err)
		}
		t.AddRow(app, 3,
			timeRun.Totals.ED2P()/base,
			instrRun.Totals.ED2P()/base,
			float64(timeRun.Epochs),
			float64(instrRun.Epochs),
		)
	}
	return t
}
