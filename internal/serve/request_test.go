package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"pcstall/internal/workload"
)

// explicitSim mirrors the POST /v1/sim body a distributed coordinator
// sends for a job (dist's wire form): every field set, the seed
// explicit, and the time cap in picoseconds, so the backend's own
// defaults cannot bend the job.
type explicitSim struct {
	App           string  `json:"app"`
	Design        string  `json:"design"`
	EpochPs       int64   `json:"epoch_ps"`
	Objective     string  `json:"objective"`
	CUsPerDomain  int     `json:"cus_per_domain"`
	CUs           int     `json:"cus"`
	Scale         float64 `json:"scale"`
	Seed          *uint64 `json:"seed"`
	MaxTimePs     int64   `json:"max_time_ps,omitempty"`
	OracleSamples int     `json:"oracle_samples,omitempty"`
	Chaos         string  `json:"chaos,omitempty"`
	MaxCycles     int64   `json:"max_cycles,omitempty"`
}

// FuzzSimRequest: any sparse body parseSimRequest accepts denotes a job
// whose fully explicit re-encoding parses back to the same cache key.
// Fleet campaigns rely on this round trip: a coordinator keys a job,
// sends it explicit, and refuses a reply whose key differs.
func FuzzSimRequest(f *testing.F) {
	app := workload.Names()[0]
	for _, body := range []string{
		simBody(1), simBody(0),
		`{"app":"comd","design":"PCSTALL"}`,
		`{"app":`, `{"app":"x","frobnicate":1}`, `{"design":"PCSTALL"}`,
		fmt.Sprintf(`{"app":%q,"design":"PCSTALL","epoch_ps":5,"epoch_us":5}`, app),
		fmt.Sprintf(`{"app":%q,"design":"PCSTALL","objective":"FAST"}`, app),
		fmt.Sprintf(`{"app":%q,"design":"PCSTALL","cus":4,"cus_per_domain":3}`, app),
		fmt.Sprintf(`{"app":%q,"design":"PCSTALL","chaos":"lol=1"}`, app),
		fmt.Sprintf(`{"app":%q,"design":"CRISP","epoch_us":2.5,"objective":"Energy@5%%","cus":8,"cus_per_domain":2,"scale":0.5}`, app),
		fmt.Sprintf(`{"app":%q,"design":"PCSTALL","max_time_ms":0.5,"oracle_samples":3,"max_cycles":1000,"timeout_ms":20}`, app),
		fmt.Sprintf(`{"app":%q,"design":"PCSTALL","chaos":"seed=7, noise=0.2","max_time_ps":123456}`, app),
		fmt.Sprintf(`{"app":%q,"design":"PCSTALL","max_time_ms":1e300}`, app),
		fmt.Sprintf(`{"app":%q,"design":"PCSTALL","max_time_ms":1e-12}`, app),
		fmt.Sprintf(`{"app":%q,"design":"PCSTALL","epoch_us":1e300}`, app),
	} {
		f.Add([]byte(body))
	}
	s, err := New(Config{Backend: &stubBackend{}, Defaults: testDefaults()})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		j, _, err := s.parseSimRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		seed := j.Seed
		explicit, err := json.Marshal(explicitSim{
			App: j.App, Design: j.Design, EpochPs: j.EpochPs,
			Objective: j.Objective, CUsPerDomain: j.CUsPerDomain, CUs: j.CUs,
			Scale: j.Scale, Seed: &seed, MaxTimePs: j.MaxTimePs,
			OracleSamples: j.OracleSamples, Chaos: j.Chaos, MaxCycles: j.MaxCycles,
		})
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := s.parseSimRequest(bytes.NewReader(explicit))
		if err != nil {
			t.Fatalf("explicit form of %s refused: %v\nexplicit: %s", body, err, explicit)
		}
		if back.Key() != j.Key() {
			t.Fatalf("explicit form of %s changed the job key from %s to %s\nexplicit: %s", body, j.Key(), back.Key(), explicit)
		}
	})
}

// TestSimRequestTimeRange: fractional time fields that truncate to zero
// picoseconds or overflow int64 are refused with a 400, not turned into
// a job no explicit request can name.
func TestSimRequestTimeRange(t *testing.T) {
	s, _ := newTestServer(t, &stubBackend{}, nil)
	app := workload.Names()[0]
	for _, field := range []string{`"max_time_ms":1e300`, `"max_time_ms":1e-12`, `"epoch_us":1e300`, `"epoch_us":1e-9`} {
		w := postSim(t, s.Handler(), fmt.Sprintf(`{"app":%q,"design":"PCSTALL",%s}`, app, field))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", field, w.Code)
			continue
		}
		if e := decodeError(t, w); !strings.Contains(e.Error, "out of range") {
			t.Errorf("%s: error %q does not say out of range", field, e.Error)
		}
	}
}

// TestSimRequestCanonicalObjective: equivalent spellings of an objective
// key one job, under the objective's canonical name; a spelling whose
// canonical name denotes a different objective is refused with a 400
// that names that spelling.
func TestSimRequestCanonicalObjective(t *testing.T) {
	s, _ := newTestServer(t, &stubBackend{}, nil)
	app := workload.Names()[0]
	parse := func(obj string) (string, string, error) {
		j, _, err := s.parseSimRequest(strings.NewReader(fmt.Sprintf(`{"app":%q,"design":"PCSTALL","objective":%q}`, app, obj)))
		return j.Objective, j.Key(), err
	}
	for canon, spellings := range map[string][]string{
		"ED2P":      {"ED02P", "ED2P"},
		"EDP":       {"ED1P", "EDP"},
		"Energy@5%": {"Energy@5.0%", "Energy@5%"},
	} {
		_, want, err := parse(canon)
		if err != nil {
			t.Fatalf("%s: %v", canon, err)
		}
		for _, sp := range spellings {
			name, key, err := parse(sp)
			if err != nil {
				t.Fatalf("%s: %v", sp, err)
			}
			if name != canon || key != want {
				t.Errorf("%s: keyed as objective %q, key %s; want %q, key %s", sp, name, key, canon, want)
			}
		}
	}
	for obj, canon := range map[string]string{"Energy@5.5%": "Energy@6%", "QoS@1000.5": "QoS@1000"} {
		w := postSim(t, s.Handler(), fmt.Sprintf(`{"app":%q,"design":"PCSTALL","objective":%q}`, app, obj))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", obj, w.Code)
			continue
		}
		if e := decodeError(t, w); !strings.Contains(e.Error, canon) {
			t.Errorf("%s: error %q does not name the canonical spelling %s", obj, e.Error, canon)
		}
	}
}
