// Package netchaos implements seeded, deterministic network fault
// injection for the fleet protocol: the wire between a dist coordinator
// and its pcstall-serve backends lies in controlled, reproducible ways.
//
// It is internal/chaos's sibling one layer down. chaos perturbs the
// observations a governor sees inside one simulation; netchaos perturbs
// the HTTP exchanges that carry settled results between machines —
// refused dials, slow connects, stalled and truncated bodies, flipped
// payload bytes, fabricated 5xx/429 answers, reset connections, and
// duplicated replies. All randomness flows from one xrand.State seeded
// by Config.Seed, so a fault schedule at a fixed (seed, spec) is exactly
// reproducible, and a disabled Config is a guaranteed no-op passthrough:
// fleet campaigns with netchaos off are byte-identical to today.
//
// The engine plans faults; two delivery vehicles apply them. Transport
// wraps an http.RoundTripper for in-process injection under dist.Client,
// and Proxy is a standalone reverse proxy for black-box tests and CI
// smokes where the coordinator must not know faults exist. Only
// POST /v1/sim exchanges are faulted: /healthz and /v1/version pass
// clean so quarantine healing and version admission stay truthful —
// the point is to corrupt results in flight, not to blind the fleet's
// control plane.
package netchaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"pcstall/internal/telemetry"
	"pcstall/internal/xrand"
)

// Class names one terminal fault kind. A Plan carries at most one
// terminal class per exchange (latency composes with any of them), so
// every observed failure is attributable to exactly one injected cause.
type Class string

const (
	// ClassNone marks a clean exchange (possibly still delayed).
	ClassNone Class = ""
	// ClassRefuse refuses the exchange before it reaches the backend,
	// like a dial to a dead port.
	ClassRefuse Class = "refuse"
	// ClassReset delivers response headers and part of the body, then
	// kills the connection, like a mid-stream RST.
	ClassReset Class = "reset"
	// Class5xx fabricates a 500 without consulting the backend.
	Class5xx Class = "e5xx"
	// Class429 fabricates a 429 with a Retry-After, without consulting
	// the backend.
	Class429 Class = "e429"
	// ClassStall delivers part of the body then hangs until the caller
	// gives up — the black-hole fault transport deadlines exist for.
	ClassStall Class = "stall"
	// ClassTruncate ends the body early under a Content-Length that
	// promised more.
	ClassTruncate Class = "trunc"
	// ClassFlip corrupts one payload byte, length preserved.
	ClassFlip Class = "flip"
	// ClassDup delivers the body twice under a doubled Content-Length.
	ClassDup Class = "dup"
)

// Config describes a network fault campaign. The zero value injects
// nothing. Config is a plain comparable value round-trippable through
// String/Parse, like chaos.Config.
type Config struct {
	// Seed selects the fault stream; equal Configs plan identical
	// per-exchange faults.
	Seed uint64
	// RefuseProb is the probability an exchange is refused outright.
	RefuseProb float64
	// DialLatency is the maximum extra pre-connect delay; each exchange
	// draws uniformly from [0, DialLatency).
	DialLatency time.Duration
	// HeaderLatency is the maximum extra delay before response headers;
	// each exchange draws uniformly from [0, HeaderLatency).
	HeaderLatency time.Duration
	// StallProb is the probability the body hangs mid-transfer.
	StallProb float64
	// TruncateProb is the probability the body ends early.
	TruncateProb float64
	// FlipProb is the probability one body byte is corrupted.
	FlipProb float64
	// Err5xxProb is the probability a 500 is fabricated.
	Err5xxProb float64
	// Err429Prob is the probability a 429 is fabricated.
	Err429Prob float64
	// ResetProb is the probability the connection dies mid-body.
	ResetProb float64
	// DupProb is the probability the body is delivered twice.
	DupProb float64
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.RefuseProb > 0 || c.DialLatency > 0 || c.HeaderLatency > 0 ||
		c.StallProb > 0 || c.TruncateProb > 0 || c.FlipProb > 0 ||
		c.Err5xxProb > 0 || c.Err429Prob > 0 || c.ResetProb > 0 || c.DupProb > 0
}

// Validate checks ranges: probabilities in [0,1], latencies non-negative.
func (c Config) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"refuse", c.RefuseProb}, {"stall", c.StallProb},
		{"trunc", c.TruncateProb}, {"flip", c.FlipProb},
		{"e5xx", c.Err5xxProb}, {"e429", c.Err429Prob},
		{"reset", c.ResetProb}, {"dup", c.DupProb},
	}
	for _, p := range probs {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("netchaos: %s probability %v out of [0,1]", p.name, p.v)
		}
	}
	if c.DialLatency < 0 || c.HeaderLatency < 0 {
		return fmt.Errorf("netchaos: latencies must be non-negative (dlat=%s, hlat=%s)",
			c.DialLatency, c.HeaderLatency)
	}
	return nil
}

// String renders the config as a canonical spec parseable by Parse:
// fixed field order, only non-default fields, "" for a config that
// injects nothing. Equal configs render identically.
func (c Config) String() string {
	if !c.Enabled() {
		return ""
	}
	var parts []string
	addP := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	addD := func(k string, v time.Duration) {
		if v > 0 {
			parts = append(parts, k+"="+v.String())
		}
	}
	addP("refuse", c.RefuseProb)
	addD("dlat", c.DialLatency)
	addD("hlat", c.HeaderLatency)
	addP("stall", c.StallProb)
	addP("trunc", c.TruncateProb)
	addP("flip", c.FlipProb)
	addP("e5xx", c.Err5xxProb)
	addP("e429", c.Err429Prob)
	addP("reset", c.ResetProb)
	addP("dup", c.DupProb)
	if c.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(c.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// Parse builds a Config from a comma-separated key=value spec, e.g.
// "flip=0.2,stall=0.1,dlat=50ms,seed=9". Keys: refuse, dlat, hlat,
// stall, trunc, flip, e5xx, e429, reset, dup, seed, and level
// (shorthand expanding to the Level profile). Latencies take Go
// duration syntax ("100ms"). An empty spec is the disabled config.
func Parse(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("netchaos: bad field %q (want key=value)", field)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		switch k {
		case "seed":
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("netchaos: bad seed %q: %v", v, err)
			}
			c.Seed = seed
		case "dlat", "hlat":
			d, err := time.ParseDuration(v)
			if err != nil {
				return Config{}, fmt.Errorf("netchaos: bad duration for %s: %q", k, v)
			}
			if k == "dlat" {
				c.DialLatency = d
			} else {
				c.HeaderLatency = d
			}
		default:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Config{}, fmt.Errorf("netchaos: bad value for %s: %q", k, v)
			}
			switch k {
			case "refuse":
				c.RefuseProb = f
			case "stall":
				c.StallProb = f
			case "trunc":
				c.TruncateProb = f
			case "flip":
				c.FlipProb = f
			case "e5xx":
				c.Err5xxProb = f
			case "e429":
				c.Err429Prob = f
			case "reset":
				c.ResetProb = f
			case "dup":
				c.DupProb = f
			case "level":
				c = Level(f, c.Seed)
			default:
				return Config{}, fmt.Errorf("netchaos: unknown field %q", k)
			}
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Level maps one scalar fault intensity l (0 = clean wire, ~0.4 =
// actively hostile network) onto a full profile touching every fault
// class, so a robustness sweep spans the whole surface on one axis.
func Level(l float64, seed uint64) Config {
	if l <= 0 {
		return Config{Seed: seed}
	}
	clamp1 := func(v float64) float64 {
		if v > 1 {
			return 1
		}
		return v
	}
	return Config{
		Seed:          seed,
		RefuseProb:    clamp1(l / 4),
		DialLatency:   time.Duration(l * float64(100*time.Millisecond)),
		HeaderLatency: time.Duration(l * float64(200*time.Millisecond)),
		StallProb:     clamp1(l / 6),
		TruncateProb:  clamp1(l / 6),
		FlipProb:      clamp1(l / 4),
		Err5xxProb:    clamp1(l / 4),
		Err429Prob:    clamp1(l / 8),
		ResetProb:     clamp1(l / 6),
		DupProb:       clamp1(l / 8),
	}
}

// Plan is one exchange's fate, decided up front so both delivery
// vehicles (Transport and Proxy) apply identical faults for identical
// (seed, spec, exchange-index) triples.
type Plan struct {
	// Exchange is the 1-based arrival index of the faultable exchange.
	Exchange int64
	// Class is the single terminal fault, ClassNone for a clean pass.
	Class Class
	// DialDelay is extra latency before the backend is contacted.
	DialDelay time.Duration
	// HeaderDelay is extra latency before response headers are released.
	HeaderDelay time.Duration
	// FlipBit selects which byte and bit ClassFlip corrupts: byte index
	// FlipBit/8 mod body length, bit FlipBit%8.
	FlipBit uint64
}

// Stats counts faults an Engine actually planned.
type Stats struct {
	Exchanges    int64         `json:"exchanges"`
	Clean        int64         `json:"clean"`
	Refused      int64         `json:"refused"`
	Stalled      int64         `json:"stalled"`
	Truncated    int64         `json:"truncated"`
	Flipped      int64         `json:"flipped"`
	Injected5xx  int64         `json:"injected_5xx"`
	Injected429  int64         `json:"injected_429"`
	Reset        int64         `json:"reset"`
	Duplicated   int64         `json:"duplicated"`
	DialDelays   int64         `json:"dial_delays"`
	HeaderDelays int64         `json:"header_delays"`
	DelayTotal   time.Duration `json:"delay_total_ns"`
}

// Injected is the number of exchanges that carried a terminal fault.
func (s Stats) Injected() int64 { return s.Exchanges - s.Clean }

// Engine plans the faults a Config describes. It is safe for concurrent
// use (exchanges arrive from many dispatch goroutines); the plan
// sequence is a pure function of (seed, spec) and the arrival order of
// exchanges. A nil *Engine plans nothing.
type Engine struct {
	cfg Config

	mu  sync.Mutex
	rng xrand.State
	n   int64
	st  Stats

	tele netchaosTelemetry
}

// NewEngine builds an engine for cfg. Call cfg.Validate first; NewEngine
// assumes a valid config. A disabled config yields an engine whose every
// plan is clean.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, rng: xrand.New(cfg.Seed ^ 0x9e7c4a05f4017ace)}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config {
	if e == nil {
		return Config{}
	}
	return e.cfg
}

// Enabled reports whether this engine can inject anything.
func (e *Engine) Enabled() bool { return e != nil && e.cfg.Enabled() }

// Stats returns the faults planned so far.
func (e *Engine) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st
}

// Publish mirrors the engine's counters onto a telemetry registry as
// netchaos_* metrics. Call once, before traffic.
func (e *Engine) Publish(r *telemetry.Registry) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.tele = newNetchaosTelemetry(r)
	e.mu.Unlock()
}

// Plan decides the fate of the next faultable exchange. Every plan
// draws the same fixed sequence of randoms regardless of which fields
// are enabled, so the schedule at a given exchange index is stable
// across config edits that merely zero a class out — and identical
// between Transport and Proxy deliveries.
func (e *Engine) Plan() Plan {
	if e == nil {
		return Plan{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	p := Plan{Exchange: e.n}
	// Fixed draw order: refuse, dial, header, e5xx, e429, reset, stall,
	// trunc, flip, dup, flip-bit. Never branch before a draw.
	rRefuse := e.rng.Float64()
	rDial := e.rng.Float64()
	rHeader := e.rng.Float64()
	r5xx := e.rng.Float64()
	r429 := e.rng.Float64()
	rReset := e.rng.Float64()
	rStall := e.rng.Float64()
	rTrunc := e.rng.Float64()
	rFlip := e.rng.Float64()
	rDup := e.rng.Float64()
	flipBit := e.rng.Uint64()

	if e.cfg.DialLatency > 0 {
		p.DialDelay = time.Duration(rDial * float64(e.cfg.DialLatency))
	}
	if e.cfg.HeaderLatency > 0 {
		p.HeaderDelay = time.Duration(rHeader * float64(e.cfg.HeaderLatency))
	}
	p.FlipBit = flipBit
	// One terminal fault per exchange, first match wins; ordered from
	// earliest point in the exchange lifecycle to latest.
	switch {
	case rRefuse < e.cfg.RefuseProb:
		p.Class = ClassRefuse
	case r5xx < e.cfg.Err5xxProb:
		p.Class = Class5xx
	case r429 < e.cfg.Err429Prob:
		p.Class = Class429
	case rReset < e.cfg.ResetProb:
		p.Class = ClassReset
	case rStall < e.cfg.StallProb:
		p.Class = ClassStall
	case rTrunc < e.cfg.TruncateProb:
		p.Class = ClassTruncate
	case rFlip < e.cfg.FlipProb:
		p.Class = ClassFlip
	case rDup < e.cfg.DupProb:
		p.Class = ClassDup
	}
	e.recordLocked(p)
	return p
}

// recordLocked folds one plan into stats and telemetry; callers hold mu.
func (e *Engine) recordLocked(p Plan) {
	e.st.Exchanges++
	e.tele.exchanges.Inc()
	if p.DialDelay > 0 {
		e.st.DialDelays++
		e.st.DelayTotal += p.DialDelay
	}
	if p.HeaderDelay > 0 {
		e.st.HeaderDelays++
		e.st.DelayTotal += p.HeaderDelay
	}
	switch p.Class {
	case ClassNone:
		e.st.Clean++
		return
	case ClassRefuse:
		e.st.Refused++
	case ClassStall:
		e.st.Stalled++
	case ClassTruncate:
		e.st.Truncated++
	case ClassFlip:
		e.st.Flipped++
	case Class5xx:
		e.st.Injected5xx++
	case Class429:
		e.st.Injected429++
	case ClassReset:
		e.st.Reset++
	case ClassDup:
		e.st.Duplicated++
	}
	e.tele.fault(p.Class)
}

// netchaosTelemetry mirrors engine stats onto a registry. The zero value
// (no registry published) records nothing.
type netchaosTelemetry struct {
	reg       *telemetry.Registry
	exchanges *telemetry.Counter
	faults    *telemetry.Counter
}

func newNetchaosTelemetry(r *telemetry.Registry) netchaosTelemetry {
	return netchaosTelemetry{
		reg:       r,
		exchanges: r.Counter("netchaos_exchanges_total", "faultable /v1/sim exchanges seen by the netchaos engine"),
		faults:    r.Counter("netchaos_faults_total", "exchanges that carried an injected terminal fault"),
	}
}

// fault counts one injected fault; only a live registry formats the
// per-class name.
func (t *netchaosTelemetry) fault(c Class) {
	t.faults.Inc()
	if t.reg == nil {
		return
	}
	t.reg.Counter("netchaos_fault_"+string(c)+"_total",
		"exchanges faulted with class "+string(c)).Inc()
}

// FaultError is the error a Transport returns for faults that surface
// as transport failures (refusal, reset, a stall outlasting its
// context). Tests and telemetry can attribute a failure to its injected
// cause; production code must NOT special-case it — the whole point is
// that the hardened fleet treats injected faults exactly like real ones.
type FaultError struct {
	Class    Class
	Exchange int64
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("netchaos: injected %s fault (exchange %d)", e.Class, e.Exchange)
}

// faultable reports whether an exchange is in scope for injection:
// only the job-carrying POST /v1/sim calls. Control-plane endpoints
// (/healthz, /v1/version) always pass clean.
func faultable(method, path string) bool {
	return method == "POST" && strings.HasSuffix(path, "/v1/sim")
}
