// Package trace records per-epoch DVFS run events in machine-readable
// formats (JSON Lines and CSV) so runs can be inspected, diffed, and
// plotted outside the simulator, or keeps them in memory (Collector).
// The dvfs runner emits one EpochEvent per epoch when a Recorder is
// attached; EpochEvent is the run's only per-epoch record.
//
// Concurrency contract: runs may execute in parallel (the orchestrated
// experiment sweeps), so the package's recorders serialize Epoch
// calls with an internal mutex — each event is written atomically, and
// sharing one recorder across concurrent runs is safe, though events
// from different runs interleave. For per-run files, attach one recorder
// per run instead. Custom Recorder implementations attached to parallel
// runs must provide their own synchronization.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// DomainEvent is one V/f domain's slice of an epoch.
type DomainEvent struct {
	// Domain is the V/f domain index.
	Domain int `json:"domain"`
	// FreqMHz is the frequency the domain ran.
	FreqMHz int `json:"freq_mhz"`
	// PredI is the policy's predicted instructions at the chosen state
	// (0 for non-predicting policies).
	PredI float64 `json:"pred_instr"`
	// ActualI is the instructions actually committed.
	ActualI float64 `json:"actual_instr"`
	// EnergyJ is the domain's core energy for the epoch.
	EnergyJ float64 `json:"energy_j"`
}

// EpochEvent is one epoch of a run.
type EpochEvent struct {
	// Index is the epoch number from 0.
	Index int `json:"epoch"`
	// StartPs and EndPs bound the epoch in simulated picoseconds.
	StartPs int64 `json:"start_ps"`
	EndPs   int64 `json:"end_ps"`
	// Domains holds the per-domain detail.
	Domains []DomainEvent `json:"domains"`
}

// Recorder receives epoch events during a run. Implementations must
// tolerate being called once per epoch for the full run, and must be
// safe for concurrent use if attached to runs that execute in parallel
// (the package-provided recorders are).
type Recorder interface {
	Epoch(e EpochEvent) error
}

// JSONL writes one JSON object per epoch per line. Safe for concurrent
// use: each event is encoded and written atomically under a mutex.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONL builds a JSON Lines recorder.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Epoch implements Recorder.
func (j *JSONL) Epoch(e EpochEvent) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enc.Encode(e)
}

// Close reports any write error the encoder deferred. JSONL writes are
// unbuffered, so there is nothing to flush; the method exists so callers
// can finalize any package recorder uniformly before closing the
// underlying file.
func (j *JSONL) Close() error {
	return nil
}

// ReadJSONL decodes a JSON Lines trace back into events (for tooling and
// tests).
func ReadJSONL(r io.Reader) ([]EpochEvent, error) {
	dec := json.NewDecoder(r)
	var out []EpochEvent
	for {
		var e EpochEvent
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("trace: decoding event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// CSV writes a flat table: one row per (epoch, domain). Safe for
// concurrent use: an epoch's rows are written and flushed atomically
// under a mutex (rows of one event never interleave with another's).
type CSV struct {
	mu     sync.Mutex
	w      *csv.Writer
	header bool
}

// NewCSV builds a CSV recorder.
func NewCSV(w io.Writer) *CSV {
	return &CSV{w: csv.NewWriter(w)}
}

// Epoch implements Recorder.
func (c *CSV) Epoch(e EpochEvent) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.header {
		c.header = true
		if err := c.w.Write([]string{
			"epoch", "start_ps", "end_ps", "domain", "freq_mhz",
			"pred_instr", "actual_instr", "energy_j",
		}); err != nil {
			return err
		}
	}
	for _, d := range e.Domains {
		rec := []string{
			strconv.Itoa(e.Index),
			strconv.FormatInt(e.StartPs, 10),
			strconv.FormatInt(e.EndPs, 10),
			strconv.Itoa(d.Domain),
			strconv.Itoa(d.FreqMHz),
			strconv.FormatFloat(d.PredI, 'g', -1, 64),
			strconv.FormatFloat(d.ActualI, 'g', -1, 64),
			strconv.FormatFloat(d.EnergyJ, 'g', -1, 64),
		}
		if err := c.w.Write(rec); err != nil {
			return err
		}
	}
	c.w.Flush()
	return c.w.Error()
}

// Close flushes buffered rows and reports any write error csv.Writer
// deferred (Flush never returns one itself). Callers writing to a file
// must Close the recorder before closing the file, or a failed final
// flush is silently lost.
func (c *CSV) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Flush()
	return c.w.Error()
}

// Collector keeps every event in memory, in arrival order: the recorder
// for callers that read a run's epochs back after it ends. The zero
// value is ready to use. Safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	events []EpochEvent
}

// Epoch implements Recorder.
func (c *Collector) Epoch(e EpochEvent) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
	return nil
}

// Events returns the events recorded so far.
func (c *Collector) Events() []EpochEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]EpochEvent(nil), c.events...)
}

// Multi fans one event out to several recorders.
type Multi []Recorder

// Epoch implements Recorder.
func (m Multi) Epoch(e EpochEvent) error {
	for _, r := range m {
		if err := r.Epoch(e); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every member that implements io.Closer, returning the
// first error.
func (m Multi) Close() error {
	var first error
	for _, r := range m {
		if c, ok := r.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
