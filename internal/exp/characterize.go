package exp

import (
	"fmt"
	"sort"

	"pcstall/internal/clock"
	"pcstall/internal/metrics"
	"pcstall/internal/sim"
)

// characterization epochs used throughout §3 of the paper.
var epochSweep = []clock.Time{
	1 * clock.Microsecond,
	10 * clock.Microsecond,
	50 * clock.Microsecond,
	100 * clock.Microsecond,
}

func epochLabel(e clock.Time) string {
	return fmt.Sprintf("%dus", e/clock.Microsecond)
}

// Figure5 reproduces the linearity study: instructions committed by one
// V/f domain at each frequency for several sampled epochs of comd, plus
// the mean R² of the linear fit across all workloads (the paper reports
// 0.82).
func (s *Suite) Figure5() *Table {
	t := &Table{
		ID:     "Figure 5",
		Title:  "Instructions committed vs frequency (comd, sampled 1us epochs)",
		Header: []string{"epoch"},
	}
	grid := sim.DefaultConfig(s.Cfg.CUs).Grid
	for _, f := range grid.States() {
		t.Header = append(t.Header, f.String())
	}
	tr := s.trace("comd", clock.Microsecond, s.Cfg.TraceEpochs, false)
	for e := range tr.curves {
		// Domain 0's curve for each kept epoch.
		t.AddRow(fmt.Sprintf("epoch %d", e), 0, tr.curves[e][0]...)
	}
	r2 := s.meanOver(func(app string) float64 {
		return s.trace(app, clock.Microsecond, s.Cfg.TraceEpochs, false).meanR2()
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean R^2 of linear I(f) fits across all workloads: %.2f (paper: 0.82)", r2))
	return t
}

// MeanR2 returns the workload-averaged linearity of I(f) at 1µs epochs
// (the quantity behind Figure 5's note), exposed for tests.
func (s *Suite) MeanR2() float64 {
	return s.meanOver(func(app string) float64 {
		return s.trace(app, clock.Microsecond, s.Cfg.TraceEpochs, false).meanR2()
	})
}

// Figure6 reproduces the sensitivity-over-time profiles for the paper's
// four example applications (dgemm, hacc, BwdBN, xsbench): domain 0's
// true sensitivity per 1µs epoch.
func (s *Suite) Figure6() *Table {
	apps := []string{"dgemm", "hacc", "BwdBN", "xsbench"}
	t := &Table{
		ID:     "Figure 6",
		Title:  "Sensitivity profile over time (instr/MHz, domain 0, 1us epochs)",
		Header: []string{"app"},
	}
	n := s.Cfg.TraceEpochs
	if n > 48 {
		n = 48
	}
	for e := 0; e < n; e++ {
		t.Header = append(t.Header, fmt.Sprintf("e%d", e))
	}
	for _, app := range apps {
		tr := s.trace(app, clock.Microsecond, s.Cfg.TraceEpochs, false)
		row := make([]float64, n)
		for e := 0; e < n && e < len(tr.sens); e++ {
			row[e] = tr.sens[e][0]
		}
		t.AddRow(app, 4, row...)
	}
	return t
}

// Figure7a reproduces the per-workload mean relative change in
// sensitivity across consecutive 1µs epochs (the paper's average is 37%).
func (s *Suite) Figure7a() *Table {
	t := &Table{
		ID:     "Figure 7a",
		Title:  "Mean relative sensitivity change across consecutive 1us epochs",
		Header: []string{"app", "rel change"},
	}
	var all []float64
	for _, app := range s.apps() {
		v := s.trace(app, clock.Microsecond, s.Cfg.TraceEpochs, false).meanRelChange()
		t.AddRow(app, 3, v)
		all = append(all, v)
	}
	t.AddRow("MEAN", 3, metrics.Mean(all))
	return t
}

// Figure7b reproduces the epoch-duration sweep of the mean relative
// change (the paper reports 37% at 1µs falling to 12% at 100µs).
func (s *Suite) Figure7b() *Table {
	t := &Table{
		ID:     "Figure 7b",
		Title:  "Mean relative sensitivity change vs epoch duration",
		Header: []string{"epoch", "rel change"},
	}
	for _, e := range epochSweep {
		v := s.meanOver(func(app string) float64 {
			// Longer epochs need fewer samples (trace scales the
			// workload up to cover the window).
			n := s.Cfg.TraceEpochs
			if e >= 10*clock.Microsecond {
				n = s.Cfg.TraceEpochs / 2
				if n < 12 {
					n = 12
				}
			}
			return s.trace(app, e, n, false).meanRelChange()
		})
		t.AddRow(epochLabel(e), 3, v)
	}
	return t
}

// Figure8 reproduces the wavefront-contribution profile for BwdBN: the
// per-epoch sensitivity of the first wavefront slots of CU 0 alongside
// the CU total.
func (s *Suite) Figure8() *Table {
	const nWaves = 8
	t := &Table{
		ID:     "Figure 8",
		Title:  "Wavefront contributions to CU-0 sensitivity (BwdBN, 1us)",
		Header: []string{"epoch"},
	}
	for w := 0; w < nWaves; w++ {
		t.Header = append(t.Header, fmt.Sprintf("wf%d", w))
	}
	t.Header = append(t.Header, "total")
	tr := s.trace("BwdBN", clock.Microsecond, s.Cfg.TraceEpochs, true)
	for e := range tr.wf {
		if e >= 32 {
			break
		}
		row := make([]float64, nWaves+1)
		for _, ws := range tr.wf[e] {
			if ws.CU != 0 {
				continue
			}
			if int(ws.AgeRank) < nWaves {
				row[ws.AgeRank] = ws.Sens
			}
			row[nWaves] += ws.Sens
		}
		t.AddRow(fmt.Sprintf("e%d", e), 4, row...)
	}
	return t
}

// pcGroupRelChange computes the mean relative change between consecutive
// same-key sensitivity observations — the machinery behind Figs. 10 and
// 11b. The key defines the paper's matching boundary: with the wave
// identity in the key only a wave's own iterations compare (WF scope);
// without it, any wave's next visit to the PC inside the boundary
// compares against the previous visitor (CU / GPU scopes).
func pcGroupRelChange(epochs [][]wfSens, key func(w *wfSens) uint64) float64 {
	last := map[uint64]float64{}
	var agg metrics.Welford
	for _, ws := range epochs {
		for i := range ws {
			w := &ws[i]
			k := key(w)
			if prev, ok := last[k]; ok {
				agg.Add(metrics.RelChange(prev, w.Sens))
			}
			last[k] = w.Sens
		}
	}
	return agg.Mean
}

// Figure10 reproduces the PC-predictability study: the mean relative
// change in wavefront sensitivity across consecutive iterations starting
// from the same PC, with the matching scope widened from a single
// wavefront to a CU to the whole GPU (the paper's 64CU/CU/WF bars; its
// average is ~10%, far below the 37% of consecutive epochs).
func (s *Suite) Figure10() *Table {
	t := &Table{
		ID:     "Figure 10",
		Title:  "Mean relative sensitivity change across same-PC iterations",
		Header: []string{"app", "GPU", "CU", "WF"},
	}
	var g64, gcu, gwf []float64
	for _, app := range s.apps() {
		tr := s.trace(app, clock.Microsecond, s.Cfg.TraceEpochs, true)
		v64 := pcGroupRelChange(tr.wf, func(w *wfSens) uint64 { return w.StartPC })
		vcu := pcGroupRelChange(tr.wf, func(w *wfSens) uint64 {
			return w.StartPC ^ uint64(w.CU)<<48
		})
		vwf := pcGroupRelChange(tr.wf, func(w *wfSens) uint64 {
			return w.StartPC ^ uint64(w.GlobalWave)<<40
		})
		t.AddRow(app, 3, v64, vcu, vwf)
		g64 = append(g64, v64)
		gcu = append(gcu, vcu)
		gwf = append(gwf, vwf)
	}
	t.AddRow("MEAN", 3, metrics.Mean(g64), metrics.Mean(gcu), metrics.Mean(gwf))
	// Baseline with the same per-wave estimate methodology: consecutive
	// epochs of the same wave regardless of PC (the reactive
	// assumption). The same-PC columns should sit well below it.
	base := s.meanOver(func(app string) float64 {
		tr := s.trace(app, clock.Microsecond, s.Cfg.TraceEpochs, true)
		return pcGroupRelChange(tr.wf, func(w *wfSens) uint64 {
			return uint64(w.GlobalWave)
		})
	})
	t.Notes = append(t.Notes, fmt.Sprintf(
		"consecutive-epoch baseline (same wave, any PC): %.3f", base))
	return t
}

// Figure11a reproduces the scheduling-contention study on quickS: the
// mean relative change in per-wavefront sensitivity by age rank (0 =
// oldest = highest priority under oldest-first scheduling).
func (s *Suite) Figure11a() *Table {
	t := &Table{
		ID:     "Figure 11a",
		Title:  "Sensitivity variation by wavefront age rank (quickS, 1us)",
		Header: []string{"age rank", "rel change"},
	}
	tr := s.trace("quickS", clock.Microsecond, s.Cfg.TraceEpochs, true)
	perRank := map[int32]*metrics.Welford{}
	last := map[int64]float64{}
	for _, ws := range tr.wf {
		for i := range ws {
			w := &ws[i]
			if prev, ok := last[w.GlobalWave]; ok {
				agg := perRank[w.AgeRank]
				if agg == nil {
					agg = &metrics.Welford{}
					perRank[w.AgeRank] = agg
				}
				agg.Add(metrics.RelChange(prev, w.Sens))
			}
			last[w.GlobalWave] = w.Sens
		}
	}
	ranks := make([]int32, 0, len(perRank))
	for r := range perRank {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(a, b int) bool { return ranks[a] < ranks[b] })
	for _, r := range ranks {
		t.AddRow(fmt.Sprintf("%d", r), 3, perRank[r].Mean)
	}
	return t
}

// Figure11b reproduces the PC-table index-offset tuning: the mean
// relative change between same-index iterations (CU scope) as low PC bits
// are dropped. The paper observes degradation past 4 offset bits.
func (s *Suite) Figure11b() *Table {
	t := &Table{
		ID:     "Figure 11b",
		Title:  "Sensitivity variation vs PC-table index offset bits (CU scope)",
		Header: []string{"offset bits", "rel change"},
	}
	for _, off := range []int{0, 2, 4, 6, 8, 10} {
		v := s.meanOver(func(app string) float64 {
			tr := s.trace(app, clock.Microsecond, s.Cfg.TraceEpochs, true)
			return pcGroupRelChange(tr.wf, func(w *wfSens) uint64 {
				return (w.StartPC >> uint(off)) ^ uint64(w.CU)<<48
			})
		})
		t.AddRow(fmt.Sprintf("%d", off), 3, v)
	}
	return t
}
