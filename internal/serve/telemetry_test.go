package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"pcstall/internal/dvfs"
)

// inventoryEntry is one name from DESIGN.md's serve_ metric row: a
// pattern over the unlabelled name (templated parts such as <endpoint>
// become wildcards) and, for labelled series, the documented class
// values.
type inventoryEntry struct {
	doc     string
	pattern *regexp.Regexp
	classes map[string]bool // nil when the series is unlabelled
	matched map[string]bool // "" for an unlabelled match, else the class
}

// placeholders maps the inventory's templated name parts to what they
// stand for in a registered name.
var placeholders = map[string]string{
	"<endpoint>": `[a-z_]+`,
	"<code>":     `[0-9]{3}`,
}

// serveInventory parses the serve_ row of DESIGN.md §6's metric table.
func serveInventory(t *testing.T) []*inventoryEntry {
	t.Helper()
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| `serve_` |") {
			row = line
			break
		}
	}
	if row == "" {
		t.Fatal("DESIGN.md has no serve_ row in its metric inventory")
	}
	names := strings.SplitN(row, " | ", 3)[1] // the Names column
	var entries []*inventoryEntry
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(names, -1) {
		doc := strings.ReplaceAll(m[1], `\|`, "|")
		e := &inventoryEntry{doc: doc, matched: map[string]bool{}}
		base := doc
		if i := strings.IndexByte(doc, '{'); i >= 0 {
			base = doc[:i]
			labels := strings.TrimSuffix(strings.TrimPrefix(doc[i:], `{class=`), "}")
			e.classes = map[string]bool{}
			for _, v := range strings.Split(labels, "|") {
				e.classes[strings.Trim(v, `"`)] = true
			}
		}
		expr := regexp.QuoteMeta("serve_" + base)
		for ph, re := range placeholders {
			expr = strings.ReplaceAll(expr, regexp.QuoteMeta(ph), re)
		}
		if strings.ContainsAny(expr, "<>") {
			t.Fatalf("inventory name %q has an unknown placeholder", doc)
		}
		e.pattern = regexp.MustCompile("^" + expr + "$")
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		t.Fatal("DESIGN.md's serve_ row lists no names")
	}
	return entries
}

// TestMetricInventory: every serve_* series a server registers while
// handling one request of each kind is documented in DESIGN.md's serve_
// row (labels and templated parts normalized), and every documented
// name is registered.
func TestMetricInventory(t *testing.T) {
	backend := &stubBackend{cached: map[string]*dvfs.Result{}}
	s, reg := newTestServer(t, backend, nil)
	h := s.Handler()
	do := func(method, target, body string, hdr ...string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	cold := do("POST", "/v1/sim", simBody(1))                                     // cold run
	do("POST", "/v1/sim", simBody(1))                                             // hot tier
	do("POST", "/v1/sim", simBody(1), "If-None-Match", cold.Header().Get("ETag")) // 304
	do("POST", "/v1/sim", `{"app":"nope"}`)                                       // 400
	j, _, err := s.parseSimRequest(strings.NewReader(simBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	backend.cached[j.Key()] = &dvfs.Result{}
	do("POST", "/v1/sim", simBody(2)) // result-cache short circuit
	async := do("POST", "/v1/sim?async=1", simBody(3))
	loc := async.Header().Get("Location")
	do("POST", "/v1/figures/5", "")
	do("GET", loc, "")
	do("GET", loc+"/events", "")
	for _, path := range []string{"/v1/workloads", "/v1/designs", "/v1/figures", "/v1/version", "/healthz"} {
		do("GET", path, "")
	}
	if cold.Code != http.StatusOK || async.Code != http.StatusAccepted {
		t.Fatalf("setup requests: cold %d, async %d", cold.Code, async.Code)
	}

	entries := serveInventory(t)
	snap := reg.Snapshot()
	var registered []string
	for n := range snap.Counters {
		registered = append(registered, n)
	}
	for n := range snap.Gauges {
		registered = append(registered, n)
	}
	for n := range snap.Histograms {
		registered = append(registered, n)
	}
	classLabel := regexp.MustCompile(`^([a-z_]+)\{class="([a-z]+)"\}$`)
	for _, name := range registered {
		if !strings.HasPrefix(name, "serve_") {
			continue
		}
		base, class := name, ""
		if m := classLabel.FindStringSubmatch(name); m != nil {
			base, class = m[1], m[2]
		}
		found := false
		for _, e := range entries {
			if !e.pattern.MatchString(base) || (class != "") != (e.classes != nil) {
				continue
			}
			if class != "" && !e.classes[class] {
				t.Errorf("%s: class %q is not documented in %q", name, class, e.doc)
			}
			e.matched[class] = true
			found = true
			break
		}
		if !found {
			t.Errorf("registered %s is missing from DESIGN.md's serve_ row", name)
		}
	}
	for _, e := range entries {
		if e.classes == nil {
			if !e.matched[""] {
				t.Errorf("documented serve_%s is never registered", e.doc)
			}
			continue
		}
		for class := range e.classes {
			if !e.matched[class] {
				t.Errorf("documented serve_%s: class %q is never registered", e.doc, class)
			}
		}
	}
}
