package tracing

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
)

// TestDisabledPathIsNilSafe: with no tracer on the context every
// operation must be a no-op — this is the invariant that keeps
// tracing-off runs byte-identical.
func TestDisabledPathIsNilSafe(t *testing.T) {
	ctx, span := Start(context.Background(), "op")
	if span != nil {
		t.Fatalf("Start without tracer returned non-nil span")
	}
	span.SetAttr("k", "v")
	span.Event("e")
	span.End()
	if got := span.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q, want empty", got)
	}
	if sc := span.Context(); sc.Valid() {
		t.Fatalf("nil span Context valid")
	}
	if FromContext(ctx) != nil {
		t.Fatalf("FromContext returned span on untraced context")
	}
	if TraceIDFrom(ctx) != "" {
		t.Fatalf("TraceIDFrom non-empty on untraced context")
	}
	h := http.Header{}
	Inject(ctx, h)
	if h.Get(TraceHeader) != "" {
		t.Fatalf("Inject wrote header on untraced context")
	}
	// nil-context entry points must not panic either.
	if TracerFrom(nil) != nil || FromContext(nil) != nil || TraceIDFrom(nil) != "" {
		t.Fatalf("nil-context lookups returned non-zero values")
	}
	var rec *Recorder
	if rec.Traces() != nil || rec.Dropped() != 0 || rec.Capacity() != 0 || rec.Proc() != "" {
		t.Fatalf("nil recorder accessors returned non-zero values")
	}
	if _, ok := rec.Trace("x"); ok {
		t.Fatalf("nil recorder Trace ok")
	}
	var tr *Tracer
	if tr.Recorder() != nil {
		t.Fatalf("nil tracer Recorder non-nil")
	}
}

// TestSpanTree checks parent/child wiring within one process and that
// a root End files the whole trace into the recorder.
func TestSpanTree(t *testing.T) {
	tr := New("test", 8)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root", String("job.key", "abc"))
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")

	if root.TraceID() == "" || len(root.TraceID()) != 32 {
		t.Fatalf("root trace ID %q not 32 hex", root.TraceID())
	}
	if child.TraceID() != root.TraceID() || grand.TraceID() != root.TraceID() {
		t.Fatalf("children did not inherit trace ID")
	}
	if child.data.ParentID != root.data.SpanID {
		t.Fatalf("child parent = %q, want %q", child.data.ParentID, root.data.SpanID)
	}
	if grand.data.ParentID != child.data.SpanID {
		t.Fatalf("grandchild parent = %q, want %q", grand.data.ParentID, child.data.SpanID)
	}
	if !root.root || child.root || grand.root {
		t.Fatalf("root flags wrong: root=%v child=%v grand=%v", root.root, child.root, grand.root)
	}

	grand.Event("tick", Int("n", 3))
	grand.End()
	child.End()
	// Before the root ends the trace is active, not completed.
	if got := tr.Recorder().Traces(); len(got) != 0 {
		t.Fatalf("trace completed before root End: %d traces", len(got))
	}
	if _, ok := tr.Recorder().Trace(root.TraceID()); !ok {
		t.Fatalf("active trace not visible by ID")
	}
	root.SetAttr("status", "ok")
	root.SetAttr("status", "done") // replace, not duplicate
	root.End()
	root.End() // idempotent

	traces := tr.Recorder().Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d completed traces, want 1", len(traces))
	}
	td := traces[0]
	if len(td.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(td.Spans))
	}
	r := td.Root()
	if r == nil || r.Name != "root" {
		t.Fatalf("trace root = %+v, want span named root", r)
	}
	var status []string
	for _, a := range r.Attrs {
		if a.Key == "status" {
			status = append(status, a.Value)
		}
	}
	if len(status) != 1 || status[0] != "done" {
		t.Fatalf("status attrs = %v, want [done]", status)
	}
}

// TestHeaderRoundTrip: Inject → Extract → remote-parented local root.
func TestHeaderRoundTrip(t *testing.T) {
	tr := New("coordinator", 8)
	ctx := WithTracer(context.Background(), tr)
	ctx, parent := Start(ctx, "dispatch")
	h := http.Header{}
	Inject(ctx, h)
	if v := h.Get(TraceHeader); len(v) != 49 {
		t.Fatalf("header %q has length %d, want 49", v, len(v))
	}

	sc, ok := Extract(h)
	if !ok {
		t.Fatalf("Extract failed on injected header")
	}
	if sc.TraceID != parent.TraceID() || sc.SpanID != parent.data.SpanID {
		t.Fatalf("extracted %+v, want trace %s span %s", sc, parent.TraceID(), parent.data.SpanID)
	}

	// Backend side: remote parent makes the first span a local root in
	// the same trace.
	btr := New("backend", 8)
	bctx := WithRemote(WithTracer(context.Background(), btr), sc)
	_, bspan := Start(bctx, "serve.sim")
	if bspan.TraceID() != parent.TraceID() {
		t.Fatalf("backend span trace %q, want %q", bspan.TraceID(), parent.TraceID())
	}
	if bspan.data.ParentID != parent.data.SpanID {
		t.Fatalf("backend span parent %q, want %q", bspan.data.ParentID, parent.data.SpanID)
	}
	if !bspan.root {
		t.Fatalf("remote-parented span is not a local root")
	}
	bspan.End()
	if _, ok := btr.Recorder().Trace(parent.TraceID()); !ok {
		t.Fatalf("backend recorder did not file the joined trace")
	}
}

// malformedTraceHeaders are X-Pcstall-Trace values Extract must refuse.
var malformedTraceHeaders = []string{
	"",
	"short",
	"0123456789abcdef0123456789abcdef-0123456789abcde",   // span 15 hex
	"0123456789abcdef0123456789abcdef_0123456789abcdef",  // bad separator
	"0123456789ABCDEF0123456789abcdef-0123456789abcdef",  // uppercase
	"0123456789abcdef0123456789abcdeg-0123456789abcdef",  // non-hex
	"0123456789abcdef0123456789abcdef-0123456789abcdefx", // too long
}

func TestExtractRejectsMalformed(t *testing.T) {
	for _, v := range malformedTraceHeaders {
		h := http.Header{}
		if v != "" {
			h.Set(TraceHeader, v)
		}
		if _, ok := Extract(h); ok {
			t.Errorf("Extract accepted %q", v)
		}
	}
}

// FuzzTraceHeader: X-Pcstall-Trace is read off every incoming request,
// so for any header value Extract must not panic, must accept exactly
// the "<32 lowercase hex>-<16 lowercase hex>" form, and an accepted
// identity must re-Inject to the same header value.
func FuzzTraceHeader(f *testing.F) {
	for _, v := range malformedTraceHeaders {
		f.Add(v)
	}
	f.Add("0123456789abcdef0123456789abcdef-0123456789abcdef")
	wellFormed := regexp.MustCompile(`^[0-9a-f]{32}-[0-9a-f]{16}$`)
	f.Fuzz(func(t *testing.T, v string) {
		h := http.Header{}
		h.Set(TraceHeader, v)
		sc, ok := Extract(h)
		if ok != wellFormed.MatchString(v) {
			t.Fatalf("Extract(%q) ok = %v, want %v", v, ok, !ok)
		}
		if !ok {
			return
		}
		out := http.Header{}
		Inject(WithRemote(context.Background(), sc), out)
		if got := out.Get(TraceHeader); got != v {
			t.Fatalf("Inject(Extract(%q)) wrote %q", v, got)
		}
	})
}

// TestSpanContextOfPrefersLocal: a context holding both a remote parent
// and a local span must propagate the local span.
func TestSpanContextOfPrefersLocal(t *testing.T) {
	tr := New("p", 4)
	remote := SpanContext{TraceID: "00112233445566778899aabbccddeeff", SpanID: "0011223344556677"}
	ctx := WithRemote(WithTracer(context.Background(), tr), remote)
	if got := SpanContextOf(ctx); got != remote {
		t.Fatalf("SpanContextOf = %+v, want remote %+v", got, remote)
	}
	ctx, span := Start(ctx, "op")
	if got := SpanContextOf(ctx); got != span.Context() {
		t.Fatalf("SpanContextOf = %+v, want local %+v", got, span.Context())
	}
	span.End()
}

// TestRecorderEviction fills past capacity and checks the oldest
// admissions evict while the bound holds.
func TestRecorderEviction(t *testing.T) {
	tr := New("evict", recorderShards) // 1 completed trace per shard
	cap := tr.Recorder().Capacity()
	ctx := WithTracer(context.Background(), tr)
	var ids []string
	for i := 0; i < 4*cap; i++ {
		_, s := Start(ctx, fmt.Sprintf("job-%d", i))
		ids = append(ids, s.TraceID())
		s.End()
	}
	traces := tr.Recorder().Traces()
	if len(traces) > cap {
		t.Fatalf("retained %d traces, capacity %d", len(traces), cap)
	}
	// Newest trace must survive; with one slot per shard, its shard's
	// earlier admissions must be gone.
	last := ids[len(ids)-1]
	if _, ok := tr.Recorder().Trace(last); !ok {
		t.Fatalf("newest trace evicted")
	}
	sh := tr.Recorder().shardFor(ids[0])
	if sh == tr.Recorder().shardFor(last) && ids[0] != last {
		if _, ok := tr.Recorder().Trace(ids[0]); ok {
			t.Fatalf("oldest same-shard trace not evicted")
		}
	}
}

// TestActiveBoundDropsSpans: rootless span floods must not grow the
// active map without bound.
func TestActiveBoundDropsSpans(t *testing.T) {
	tr := New("bound", recorderShards)
	rec := tr.Recorder()
	ctx := WithTracer(context.Background(), tr)
	// Child spans never complete a trace; each lands in a fresh trace's
	// active slot until the per-shard bound trips.
	for i := 0; i < 64*rec.maxActive; i++ {
		sctx, root := Start(ctx, "leaky-root")
		_, child := Start(sctx, "child")
		child.End()
		_ = root // never ended: trace stays active
	}
	if rec.Dropped() == 0 {
		t.Fatalf("active-map bound never dropped spans")
	}
	for i := range rec.shards {
		sh := &rec.shards[i]
		sh.mu.Lock()
		n := len(sh.active)
		sh.mu.Unlock()
		if n > rec.maxActive {
			t.Fatalf("shard %d active=%d exceeds bound %d", i, n, rec.maxActive)
		}
	}
}

// TestLateSpanMerge: a span ending after its trace completed (backend
// request span outliving the job span) must merge into the completed
// record, and a second local root must refresh recency, not re-admit.
func TestLateSpanMerge(t *testing.T) {
	tr := New("merge", 8)
	ctx := WithTracer(context.Background(), tr)
	ctx, first := Start(ctx, "request")
	jctx := WithRemote(WithTracer(context.Background(), tr), first.Context())
	_, job := Start(jctx, "job")
	_, inner := Start(ctx, "inner")

	job.End() // first local root completes the trace
	td, ok := tr.Recorder().Trace(job.TraceID())
	if !ok || len(td.Spans) != 1 {
		t.Fatalf("after job end: ok=%v spans=%d, want 1", ok, len(td.Spans))
	}
	inner.End() // late non-root span merges
	first.End() // second local root merges + refreshes
	td, ok = tr.Recorder().Trace(job.TraceID())
	if !ok || len(td.Spans) != 3 {
		t.Fatalf("after merge: ok=%v spans=%d, want 3", ok, len(td.Spans))
	}
	if n := len(tr.Recorder().Traces()); n != 1 {
		t.Fatalf("second root re-admitted the trace: %d retained", n)
	}
}

// TestConcurrentSpans hammers one tracer from many goroutines; run
// under -race in CI.
func TestConcurrentSpans(t *testing.T) {
	tr := New("conc", 64)
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sctx, root := Start(ctx, "root", Int("g", int64(g)))
				_, child := Start(sctx, "child")
				child.Event("e", Int("i", int64(i)))
				child.End()
				root.SetAttr("i", fmt.Sprint(i))
				root.End()
			}
		}(g)
	}
	wg.Wait()
	if n := len(tr.Recorder().Traces()); n == 0 || n > tr.Recorder().Capacity() {
		t.Fatalf("retained %d traces, want 1..%d", n, tr.Recorder().Capacity())
	}
}

// TestWriteChrome validates the exported file shape: parseable JSON,
// metadata rows, every span's parent resolvable, events placed.
func TestWriteChrome(t *testing.T) {
	tr := New("proc-a", 8)
	ctx := WithTracer(context.Background(), tr)
	sctx, root := Start(ctx, "campaign", String("job.key", "k1"))
	_, child := Start(sctx, "attempt")
	child.Event("retry", Int("n", 1))
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.Recorder().WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  uint32            `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	spanIDs := map[string]bool{}
	var haveProcMeta, haveInstant bool
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" && ev.Args["name"] == "proc-a" {
				haveProcMeta = true
			}
		case "X":
			spanIDs[ev.Args["span_id"]] = true
		case "i":
			haveInstant = true
		}
	}
	if !haveProcMeta {
		t.Fatalf("no process_name metadata")
	}
	if !haveInstant {
		t.Fatalf("span event did not export as an instant")
	}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if p := ev.Args["parent_id"]; p != "" && !spanIDs[p] {
			t.Fatalf("span %s has unresolvable parent %s", ev.Args["span_id"], p)
		}
	}
}

// TestDebugEndpoints exercises the mounted HTTP surface.
func TestDebugEndpoints(t *testing.T) {
	tr := New("http", 8)
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "job", String("job.key", "k"))
	s.End()

	mux := http.NewServeMux()
	Register(mux, tr.Recorder())
	Register(mux, nil) // must be a no-op, not a panic/double-register

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", rr.Code)
	}
	var idx tracesIndex
	if err := json.Unmarshal(rr.Body.Bytes(), &idx); err != nil {
		t.Fatalf("index JSON: %v", err)
	}
	if idx.Proc != "http" || idx.Retained != 1 || len(idx.Traces) != 1 {
		t.Fatalf("index = %+v, want proc=http retained=1", idx)
	}
	if idx.Traces[0].Root != "job" {
		t.Fatalf("summary root %q, want job", idx.Traces[0].Root)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces/"+s.TraceID(), nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/traces/{id} status %d", rr.Code)
	}
	var td TraceData
	if err := json.Unmarshal(rr.Body.Bytes(), &td); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if td.TraceID != s.TraceID() || len(td.Spans) != 1 {
		t.Fatalf("trace = %+v, want 1 span of %s", td, s.TraceID())
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces/ffffffffffffffffffffffffffffffff", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("missing trace status %d, want 404", rr.Code)
	}
}
