package load

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
)

// Report is one load run: one mix at one offered-load point.
type Report struct {
	Mix         string  `json:"mix"`
	Seed        uint64  `json:"seed"`
	Targets     int     `json:"targets"`
	OfferedRPS  float64 `json:"offered_rps"`
	DurationSec float64 `json:"duration_sec"` // scheduled arrival window
	WallSec     float64 `json:"wall_sec"`     // wall time until the last response landed

	// Offered is the scheduled arrival count; Sent is how many actually
	// dispatched (less than Offered only when the run was cancelled).
	Offered int `json:"offered"`
	Sent    int `json:"sent"`

	// Errors counts transport failures and unexpected HTTP statuses;
	// Corrupt counts digest-stamp mismatches. Both must be zero for a
	// run to validate.
	Errors  int `json:"errors"`
	Corrupt int `json:"corrupt"`

	Classes map[string]*ClassStats `json:"classes"`
}

// ClassStats aggregates one request class's outcomes and latency
// distribution.
type ClassStats struct {
	Sent        int `json:"sent"`
	OK          int `json:"ok"`
	NotModified int `json:"not_modified"`
	Shed        int `json:"shed"`
	Unavailable int `json:"unavailable"`
	Errors      int `json:"errors"`

	// GoodputRPS is (OK + NotModified) per wall second.
	GoodputRPS float64 `json:"goodput_rps"`
	// ShedRate and NotModifiedRate are fractions of Sent.
	ShedRate        float64 `json:"shed_rate"`
	NotModifiedRate float64 `json:"not_modified_rate"`

	// Latency percentiles over answered requests (any status), ms.
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`

	// MaxRetryAfterSec is the largest Retry-After hint seen on sheds.
	MaxRetryAfterSec int `json:"max_retry_after_sec,omitempty"`

	latencies []time.Duration
}

func newReport(cfg Config, offered, sent int, wall time.Duration) *Report {
	return &Report{
		Mix:         cfg.Mix,
		Seed:        cfg.Seed,
		Targets:     len(cfg.Targets),
		OfferedRPS:  cfg.Rate,
		DurationSec: cfg.Duration.Seconds(),
		WallSec:     wall.Seconds(),
		Offered:     offered,
		Sent:        sent,
		Classes:     map[string]*ClassStats{},
	}
}

// add folds one completed request into the report.
func (rep *Report) add(r record) {
	cs := rep.Classes[r.class]
	if cs == nil {
		cs = &ClassStats{}
		rep.Classes[r.class] = cs
	}
	cs.Sent++
	switch r.outcome {
	case outcomeOK:
		cs.OK++
	case outcomeNotModified:
		cs.NotModified++
	case outcomeShed:
		cs.Shed++
		if r.retryAfter > cs.MaxRetryAfterSec {
			cs.MaxRetryAfterSec = r.retryAfter
		}
	case outcomeUnavailable:
		cs.Unavailable++
	case outcomeCorrupt:
		rep.Corrupt++
		cs.Errors++
		rep.Errors++
	default: // transport, http_error
		cs.Errors++
		rep.Errors++
	}
	cs.latencies = append(cs.latencies, r.latency)
}

// finish computes the derived rates and percentiles.
func (rep *Report) finish(wall time.Duration) {
	secs := wall.Seconds()
	for _, cs := range rep.Classes {
		if secs > 0 {
			cs.GoodputRPS = float64(cs.OK+cs.NotModified) / secs
		}
		if cs.Sent > 0 {
			cs.ShedRate = float64(cs.Shed) / float64(cs.Sent)
			cs.NotModifiedRate = float64(cs.NotModified) / float64(cs.Sent)
		}
		sort.Slice(cs.latencies, func(i, j int) bool { return cs.latencies[i] < cs.latencies[j] })
		cs.P50Ms = percentileMs(cs.latencies, 0.50)
		cs.P95Ms = percentileMs(cs.latencies, 0.95)
		cs.P99Ms = percentileMs(cs.latencies, 0.99)
		var sum time.Duration
		for _, l := range cs.latencies {
			sum += l
		}
		if n := len(cs.latencies); n > 0 {
			cs.MeanMs = float64(sum) / float64(n) / float64(time.Millisecond)
		}
		cs.latencies = nil // measured; drop the raw samples
	}
}

// percentileMs is the nearest-rank percentile of sorted samples, in ms.
func percentileMs(sorted []time.Duration, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(q*float64(n)+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return float64(sorted[rank]) / float64(time.Millisecond)
}

// TotalShed sums sheds across classes.
func (rep *Report) TotalShed() int {
	total := 0
	for _, cs := range rep.Classes {
		total += cs.Shed
	}
	return total
}

// Validate checks one report's internal consistency; pcstall-load exits
// 1 on a report that fails it.
func (rep *Report) Validate() error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if rep.Mix == "" {
		fail("missing mix")
	} else if _, ok := Mixes[rep.Mix]; !ok {
		fail("unknown mix %q", rep.Mix)
	}
	if rep.OfferedRPS <= 0 || rep.DurationSec <= 0 {
		fail("non-positive offered_rps (%v) or duration_sec (%v)", rep.OfferedRPS, rep.DurationSec)
	}
	if rep.Offered <= 0 {
		fail("no offered arrivals")
	}
	if rep.Sent > rep.Offered {
		fail("sent %d exceeds offered %d", rep.Sent, rep.Offered)
	}
	if len(rep.Classes) == 0 {
		fail("no classes recorded")
	}
	sent := 0
	for class, cs := range rep.Classes {
		switch class {
		case ClassCached, ClassCold, ClassFigure:
		default:
			fail("unknown class %q", class)
			continue
		}
		sent += cs.Sent
		if got := cs.OK + cs.NotModified + cs.Shed + cs.Unavailable + cs.Errors; got != cs.Sent {
			fail("class %s: outcomes sum to %d, sent %d", class, got, cs.Sent)
		}
		if cs.P50Ms > cs.P95Ms || cs.P95Ms > cs.P99Ms {
			fail("class %s: percentiles not monotone (p50=%.3f p95=%.3f p99=%.3f)", class, cs.P50Ms, cs.P95Ms, cs.P99Ms)
		}
		if cs.ShedRate < 0 || cs.ShedRate > 1 || cs.NotModifiedRate < 0 || cs.NotModifiedRate > 1 {
			fail("class %s: rates out of [0,1]", class)
		}
	}
	if sent != rep.Sent {
		fail("class sents sum to %d, report sent %d", sent, rep.Sent)
	}
	return errors.Join(errs...)
}

// Fprint renders the human summary.
func (rep *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "mix=%s offered=%d sent=%d rate=%.1f/s window=%.1fs wall=%.1fs errors=%d corrupt=%d\n",
		rep.Mix, rep.Offered, rep.Sent, rep.OfferedRPS, rep.DurationSec, rep.WallSec, rep.Errors, rep.Corrupt)
	fmt.Fprintf(w, "  %-8s %6s %6s %5s %5s %5s %4s %9s %8s %8s %8s\n",
		"class", "sent", "ok", "304", "shed", "unavl", "err", "goodput/s", "p50ms", "p95ms", "p99ms")
	for _, class := range []string{ClassCached, ClassCold, ClassFigure} {
		cs, ok := rep.Classes[class]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-8s %6d %6d %5d %5d %5d %4d %9.1f %8.2f %8.2f %8.2f\n",
			class, cs.Sent, cs.OK, cs.NotModified, cs.Shed, cs.Unavailable, cs.Errors,
			cs.GoodputRPS, cs.P50Ms, cs.P95Ms, cs.P99Ms)
	}
}
