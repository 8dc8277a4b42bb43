package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"pcstall/internal/chaos"
	"pcstall/internal/core"
	"pcstall/internal/dvfs"
	"pcstall/internal/exp"
	"pcstall/internal/orchestrate"
)

// SimRequest is the POST /v1/sim body: a sparse simulation config.
// App and Design are required; every other field defaults from the
// server's platform (Config.Defaults), so a request that sets only
// {"app","design"} computes exactly the job a CLI campaign on the same
// platform would, and therefore shares its cache key.
type SimRequest struct {
	App    string `json:"app"`
	Design string `json:"design"`
	// EpochPs and EpochUs both set the DVFS epoch; setting both is an
	// error.
	EpochPs      int64   `json:"epoch_ps,omitempty"`
	EpochUs      float64 `json:"epoch_us,omitempty"`
	Objective    string  `json:"objective,omitempty"`
	CUsPerDomain int     `json:"cus_per_domain,omitempty"`
	CUs          int     `json:"cus,omitempty"`
	Scale        float64 `json:"scale,omitempty"`
	// Seed is a pointer so that an explicit 0 is distinguishable from
	// "use the server default".
	Seed *uint64 `json:"seed,omitempty"`
	// MaxTimeMs and MaxTimePs both cap simulated time; setting both is
	// an error. The picosecond form exists for coordinators relaying
	// content-addressed jobs verbatim: a millisecond round-trip could
	// perturb MaxTimePs and silently change the job key.
	MaxTimeMs     float64 `json:"max_time_ms,omitempty"`
	MaxTimePs     int64   `json:"max_time_ps,omitempty"`
	OracleSamples int     `json:"oracle_samples,omitempty"`
	Chaos         string  `json:"chaos,omitempty"`
	MaxCycles     int64   `json:"max_cycles,omitempty"`
	// TimeoutMs bounds this request's simulation; it propagates through
	// the job context down to the run's epoch-boundary checks. Capped
	// at the server's MaxTimeout.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
}

// parseSimRequest decodes and validates a request body against the
// server's defaults, returning the content-addressed job it denotes and
// the request's deadline. Validation failures are *requestError (400)
// whose messages list the valid names, so clients self-correct.
func (s *Server) parseSimRequest(body io.Reader) (orchestrate.Job, time.Duration, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req SimRequest
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			// Keep the MaxBytesError in the chain so the handler can
			// answer 413 instead of a generic 400.
			return orchestrate.Job{}, 0, fmt.Errorf("decoding sim config: %w", err)
		}
		return orchestrate.Job{}, 0, &requestError{fmt.Sprintf("decoding sim config: %v", err)}
	}
	j := s.defaults // copy
	j.SimVersion = orchestrate.SimVersion

	if req.App == "" {
		return j, 0, &requestError{fmt.Sprintf("missing \"app\" (available: %v)", s.workloads)}
	}
	if !s.workloadSet[req.App] {
		return j, 0, &requestError{fmt.Sprintf("unknown app %q (available: %v)", req.App, s.workloads)}
	}
	j.App = req.App
	if req.Design == "" {
		return j, 0, &requestError{fmt.Sprintf("missing \"design\" (available: %v)", core.DesignNames())}
	}
	if _, err := core.DesignByName(req.Design); err != nil {
		return j, 0, &requestError{err.Error()}
	}
	j.Design = req.Design
	if req.EpochPs != 0 && req.EpochUs != 0 {
		return j, 0, &requestError{"set epoch_ps or epoch_us, not both"}
	}
	if req.EpochPs != 0 {
		j.EpochPs = req.EpochPs
	} else if req.EpochUs != 0 {
		ps, err := toPs("epoch_us", req.EpochUs, 1e6)
		if err != nil {
			return j, 0, err
		}
		j.EpochPs = ps
	}
	if j.EpochPs <= 0 {
		return j, 0, &requestError{fmt.Sprintf("epoch must be positive, got %d ps", j.EpochPs)}
	}
	if req.Objective != "" {
		if _, err := exp.ObjectiveByName(req.Objective); err != nil {
			return j, 0, &requestError{fmt.Sprintf("%v (try EDP, ED2P, Energy@5%%)", err)}
		}
		j.Objective = req.Objective
	}
	if req.CUs < 0 || req.CUsPerDomain < 0 || req.Scale < 0 || req.MaxTimeMs < 0 ||
		req.MaxTimePs < 0 || req.OracleSamples < 0 || req.MaxCycles < 0 || req.TimeoutMs < 0 {
		return j, 0, &requestError{"numeric fields must be non-negative"}
	}
	if req.MaxTimeMs != 0 && req.MaxTimePs != 0 {
		return j, 0, &requestError{"set max_time_ms or max_time_ps, not both"}
	}
	if req.CUs != 0 {
		j.CUs = req.CUs
	}
	if req.CUsPerDomain != 0 {
		j.CUsPerDomain = req.CUsPerDomain
	}
	if j.CUsPerDomain <= 0 || j.CUs <= 0 || j.CUsPerDomain > j.CUs || j.CUs%j.CUsPerDomain != 0 {
		return j, 0, &requestError{fmt.Sprintf("cus_per_domain %d must divide cus %d", j.CUsPerDomain, j.CUs)}
	}
	if req.Scale != 0 {
		j.Scale = req.Scale
	}
	if req.Seed != nil {
		j.Seed = *req.Seed
	}
	if req.MaxTimeMs != 0 {
		ps, err := toPs("max_time_ms", req.MaxTimeMs, 1e9)
		if err != nil {
			return j, 0, err
		}
		j.MaxTimePs = ps
	}
	if req.MaxTimePs != 0 {
		j.MaxTimePs = req.MaxTimePs
	}
	if req.OracleSamples != 0 {
		j.OracleSamples = req.OracleSamples
	}
	if req.Chaos != "" {
		ch, err := chaos.Parse(req.Chaos)
		if err != nil {
			return j, 0, &requestError{err.Error()}
		}
		// Canonicalize so equivalent spellings share cache keys.
		j.Chaos = ch.String()
	}
	if req.MaxCycles != 0 {
		j.MaxCycles = req.MaxCycles
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs != 0 {
		timeout = time.Duration(req.TimeoutMs * float64(time.Millisecond))
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	return j, timeout, nil
}

// toPs converts a fractional time field to whole picoseconds (perUnit
// per unit). A value that truncates to zero or overflows int64 is
// refused: either would denote a job that no explicit picosecond
// request (what a coordinator sends) can name, so the fleet's key check
// would reject the reply.
func toPs(field string, v, perUnit float64) (int64, error) {
	ps := v * perUnit
	if ps < 1 || ps >= math.MaxInt64 {
		return 0, &requestError{fmt.Sprintf("%s %v is out of range (1 ps to 2^63 ps)", field, v)}
	}
	return int64(ps), nil
}

// requestError is a client-side validation failure: it renders as a 400
// with a structured body instead of a 500.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

// apiError is the structured error body every failure path renders.
type apiError struct {
	Version string `json:"version"`
	Error   string `json:"error"`
}

// simResponse is the settled POST /v1/sim body. It is rendered exactly
// once per job and fanned out byte-identically to every request that
// joined the computation.
type simResponse struct {
	Version string          `json:"version"`
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Status  string          `json:"status"`
	Job     orchestrate.Job `json:"job"`
	Result  *dvfs.Result    `json:"result"`
}

// figureResponse is the settled POST /v1/figures/{id} body. Text is the
// exact rendering pcstall-exp prints for the same figure on the same
// platform — the golden test holds the two byte-identical.
type figureResponse struct {
	Version string     `json:"version"`
	ID      string     `json:"id"`
	Kind    string     `json:"kind"`
	Status  string     `json:"status"`
	Figure  string     `json:"figure"`
	Text    string     `json:"text"`
	Table   *exp.Table `json:"table"`
}

// jobResponse is the GET /v1/jobs/{id} body. Response carries the
// settled job's rendered body verbatim once the job is done.
type jobResponse struct {
	Version  string          `json:"version"`
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Status   string          `json:"status"`
	Response json.RawMessage `json:"response,omitempty"`
}

// versionResponse is the GET /v1/version body. SimVersion is the exact
// orchestrate.SimVersion string that keys the result cache — distributed
// coordinators compare it at admission so a mixed-version fleet can
// never pollute the content-addressed cache (Version also embeds it but
// carries a VCS suffix, so it is not the comparison key).
type versionResponse struct {
	Version    string `json:"version"`
	SimVersion string `json:"sim_version"`
}

// healthResponse is the GET /healthz body: whether the server is
// accepting work (200 "ok") or draining (503 "draining"), plus the
// queue shape a coordinator or load balancer sizes its dispatch by.
// QueueDepth and Running aggregate across lanes (the pre-lane wire
// shape, kept for existing coordinators); Queues breaks the same
// numbers out per admission class.
type healthResponse struct {
	Version    string                `json:"version"`
	Status     string                `json:"status"`
	QueueDepth int                   `json:"queue_depth"`
	Running    int                   `json:"running"`
	Queues     map[string]laneHealth `json:"queues,omitempty"`
	Draining   bool                  `json:"draining"`
}

// laneHealth is one admission lane's queue shape in /healthz.
type laneHealth struct {
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	Capacity   int `json:"capacity"`
}

// listResponse backs the registry listings (GET /v1/workloads,
// /v1/designs, /v1/figures) — the same name lists the registries' own
// unknown-name errors print.
type listResponse struct {
	Version   string   `json:"version"`
	Workloads []string `json:"workloads,omitempty"`
	Designs   []string `json:"designs,omitempty"`
	Figures   []string `json:"figures,omitempty"`
}

// writeJSON renders v indented with the canonical content type.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// marshalBody renders a settled response body (indented, newline
// terminated) for storage on a job.
func marshalBody(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Response types are plain structs; failure here is a bug.
		panic(fmt.Sprintf("serve: encoding response: %v", err))
	}
	return append(b, '\n')
}
