package trace

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func events(n, domains int) []EpochEvent {
	out := make([]EpochEvent, n)
	for i := range out {
		out[i] = EpochEvent{
			Index:   i,
			StartPs: int64(i) * 1000,
			EndPs:   int64(i+1) * 1000,
		}
		for d := 0; d < domains; d++ {
			out[i].Domains = append(out[i].Domains, DomainEvent{
				Domain: d, FreqMHz: 1300 + 100*d,
				PredI: float64(100 + i), ActualI: float64(110 + i),
				EnergyJ: 1e-6,
			})
		}
	}
	return out
}

func TestJSONLRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewJSONL(&buf)
	want := events(5, 2)
	for _, e := range want {
		if err := rec.Epoch(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].EndPs != want[i].EndPs {
			t.Fatalf("event %d header mismatch: %+v", i, got[i])
		}
		if len(got[i].Domains) != 2 || got[i].Domains[1].FreqMHz != 1400 {
			t.Fatalf("event %d domains mismatch: %+v", i, got[i].Domains)
		}
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCSVFormat(t *testing.T) {
	var buf bytes.Buffer
	rec := NewCSV(&buf)
	for _, e := range events(3, 2) {
		if err := rec.Epoch(e); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 3 epochs x 2 domains.
	if len(lines) != 1+6 {
		t.Fatalf("%d lines, want 7:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "epoch,start_ps,end_ps,domain,freq_mhz") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0,1000,0,1300") {
		t.Fatalf("bad first row %q", lines[1])
	}
}

func TestMultiFansOut(t *testing.T) {
	var a, b bytes.Buffer
	m := Multi{NewJSONL(&a), NewJSONL(&b)}
	if err := m.Epoch(events(1, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || a.String() != b.String() {
		t.Fatal("multi recorder did not fan out identically")
	}
}

// TestJSONLConcurrentWriters asserts the documented contract: many runs
// may share one recorder, every event lands intact on its own line.
func TestJSONLConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	rec := NewJSONL(&buf)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := rec.Epoch(EpochEvent{
					Index:   w*perWriter + i,
					StartPs: int64(i) * 1000,
					EndPs:   int64(i+1) * 1000,
					Domains: []DomainEvent{{Domain: w, FreqMHz: 1300}},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("interleaved write corrupted the stream: %v", err)
	}
	if len(got) != writers*perWriter {
		t.Fatalf("%d events, want %d", len(got), writers*perWriter)
	}
	seen := map[int]bool{}
	for _, e := range got {
		if seen[e.Index] {
			t.Fatalf("event %d duplicated", e.Index)
		}
		seen[e.Index] = true
		if len(e.Domains) != 1 {
			t.Fatalf("event %d torn: %+v", e.Index, e)
		}
	}
}

// TestCSVConcurrentWriters asserts rows of one event never interleave
// with another event's rows.
func TestCSVConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	rec := NewCSV(&buf)
	const writers, perWriter, domains = 6, 25, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ev := EpochEvent{Index: w*perWriter + i}
				for d := 0; d < domains; d++ {
					ev.Domains = append(ev.Domains, DomainEvent{Domain: d, FreqMHz: 1300})
				}
				if err := rec.Epoch(ev); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+writers*perWriter*domains {
		t.Fatalf("%d lines, want %d", len(lines), 1+writers*perWriter*domains)
	}
	// Each epoch's rows must be contiguous with domains in order 0..2.
	for i := 1; i < len(lines); i += domains {
		epoch := strings.Split(lines[i], ",")[0]
		for d := 0; d < domains; d++ {
			f := strings.Split(lines[i+d], ",")
			if f[0] != epoch || f[3] != strconv.Itoa(d) {
				t.Fatalf("rows interleaved at line %d: %q", i+d, lines[i+d])
			}
		}
	}
}

// failAfter fails every write past the first n bytes — a disk-full stand-in.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errors.New("disk full")
	}
	f.written += len(p)
	return len(p), nil
}

func TestCSVCloseSurfacesWriteError(t *testing.T) {
	// Room for nothing: csv.Writer buffers, so Epoch may succeed locally
	// and the error only surfaces on flush.
	c := NewCSV(&failAfter{n: 10})
	err := c.Epoch(events(1, 1)[0])
	if err == nil {
		err = c.Close()
	}
	if err == nil {
		t.Fatal("write error swallowed by Epoch+Close")
	}
	// Close keeps reporting the sticky error.
	if c.Close() == nil {
		t.Fatal("sticky error lost on second Close")
	}
}

func TestCSVCloseCleanOnHealthyWriter(t *testing.T) {
	var b bytes.Buffer
	c := NewCSV(&b)
	if err := c.Epoch(events(1, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Fatal("nothing flushed")
	}
}

func TestJSONLClose(t *testing.T) {
	var b bytes.Buffer
	j := NewJSONL(&b)
	if err := j.Epoch(events(1, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiClose(t *testing.T) {
	var b bytes.Buffer
	m := Multi{NewJSONL(&b), NewCSV(&failAfter{n: 0})}
	_ = m.Epoch(events(1, 1)[0]) // CSV member errors; JSONL still writes
	if m.Close() == nil {
		t.Fatal("Multi.Close dropped the failing member's error")
	}
}

// TestCollectorConcurrentWriters: a Collector shared by concurrent runs
// keeps every event intact, and Events hands back a copy the recorder
// does not write into afterwards.
func TestCollectorConcurrentWriters(t *testing.T) {
	var c Collector
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, e := range events(perWriter, 2) {
				e.Index += w * perWriter
				if err := c.Epoch(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got := c.Events()
	if len(got) != writers*perWriter {
		t.Fatalf("%d events, want %d", len(got), writers*perWriter)
	}
	seen := map[int]bool{}
	for _, e := range got {
		if seen[e.Index] || len(e.Domains) != 2 {
			t.Fatalf("event %d duplicated or torn: %+v", e.Index, e)
		}
		seen[e.Index] = true
	}
	_ = c.Epoch(EpochEvent{Index: -1})
	if len(got) != writers*perWriter || got[len(got)-1].Index == -1 {
		t.Fatal("a later Epoch changed a slice Events already returned")
	}
}
