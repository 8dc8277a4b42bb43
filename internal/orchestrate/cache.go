package orchestrate

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"pcstall/internal/dvfs"
)

// cacheEntry is one JSONL line of the on-disk result cache.
type cacheEntry struct {
	Key    string       `json:"key"`
	Job    Job          `json:"job"`
	Result *dvfs.Result `json:"result"`
}

// Cache is the content-addressed disk layer: one append-only JSON Lines
// file of (key, job, result) records under a cache directory. The whole
// file is loaded on open, so lookups are memory-speed; writes append one
// line per computed result. Keys embed SimVersion, so entries written by
// an older simulator silently miss (and are left in place) after a bump.
//
// The disk layer is best-effort in both directions. On load, corrupt
// lines — a torn append from a killed process, even one longer than the
// scanner buffer — cost only themselves: everything readable before them
// is kept, and a corrupt tail is truncate-repaired in place (the file is
// atomically rewritten from the surviving entries). On store, the first
// write failure (disk full, revoked handle) disables further disk writes
// for the run; results keep flowing through the in-memory layer and the
// failure is surfaced once to the caller.
//
// A Cache is safe for concurrent use by multiple goroutines within one
// process. Concurrent processes appending to the same directory do not
// corrupt each other's lines (single-line appends), but may duplicate
// work; last-loaded wins on duplicate keys.
type Cache struct {
	mu       sync.Mutex
	mem      map[string]cacheEntry
	file     *os.File
	enc      *json.Encoder
	repaired bool
	writeErr error
}

// ResultsFile is the JSONL file name used inside a cache directory.
const ResultsFile = "results.jsonl"

// OpenCache opens (creating if needed) the cache under dir and loads any
// existing results. Corrupt lines (a previously killed process) are
// skipped, not fatal; a corrupt tail that breaks the scanner itself, or
// a final line without its newline, triggers an in-place repair that
// keeps every entry loaded so far.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("orchestrate: creating cache dir: %w", err)
	}
	path := filepath.Join(dir, ResultsFile)
	c := &Cache{mem: map[string]cacheEntry{}}
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			var e cacheEntry
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Key == "" || e.Result == nil {
				continue // tolerate torn/corrupt lines
			}
			c.mem[e.Key] = e
		}
		scanErr := sc.Err()
		if scanErr == nil && !endsInNewline(f) {
			// A final line without its newline is a torn append. Left in
			// place, the next Put would append onto it and the merged
			// line would lose the new entry on the next load.
			scanErr = errors.New("unterminated final line")
		}
		f.Close()
		if scanErr != nil {
			// A scanner error (most likely a torn final line longer than
			// the buffer) or a torn final line means the tail is
			// unreadable, not that the cache is lost: keep what loaded and
			// rewrite the file from it so the directory is healthy again
			// for this and future runs.
			if rerr := c.repair(path); rerr != nil {
				return nil, fmt.Errorf("orchestrate: repairing %s after corrupt tail (%v): %w", path, scanErr, rerr)
			}
			c.repaired = true
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("orchestrate: opening %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("orchestrate: appending to %s: %w", path, err)
	}
	c.file = f
	c.enc = json.NewEncoder(f)
	return c, nil
}

// endsInNewline reports whether f is empty or its last byte is a newline.
func endsInNewline(f *os.File) bool {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return true
	}
	var last [1]byte
	_, err = f.ReadAt(last[:], fi.Size()-1)
	return err != nil || last[0] == '\n'
}

// repair atomically rewrites the results file from the loaded entries
// (sorted by key for stable diffs), discarding the unreadable tail.
func (c *Cache) repair(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ResultsFile+".repair-*")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(tmp)
	keys := make([]string, 0, len(c.mem))
	for k := range c.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := enc.Encode(c.mem[k]); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Repaired reports whether OpenCache had to truncate-repair a corrupt
// tail.
func (c *Cache) Repaired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.repaired
}

// WriteErr returns the persistence failure that disabled disk writes,
// if one occurred.
func (c *Cache) WriteErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeErr
}

// Get returns the cached result for key, if present.
func (c *Cache) Get(key string) (*dvfs.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.mem[key]
	return e.Result, ok
}

// Len reports the number of loaded entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Put stores a computed result in memory and appends it to the results
// file. A persistence error is returned once and disables further disk
// writes for the run — the in-memory layer keeps serving, so the caller
// should degrade (count the failure), not fail the job. A partially
// appended line from the failed write is tolerated (and repaired) by the
// next OpenCache.
func (c *Cache) Put(key string, j Job, r *dvfs.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = cacheEntry{Key: key, Job: j, Result: r}
	if c.enc == nil {
		return nil
	}
	if err := c.enc.Encode(cacheEntry{Key: key, Job: j, Result: r}); err != nil {
		c.writeErr = fmt.Errorf("orchestrate: persisting %s (disk writes disabled for this run): %w", key, err)
		c.enc = nil
		return c.writeErr
	}
	return nil
}

// Close releases the append handle. Get/Put remain usable in-memory.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.file == nil {
		return nil
	}
	err := c.file.Close()
	c.file, c.enc = nil, nil
	return err
}
