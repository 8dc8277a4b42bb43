package load

import (
	"fmt"
	"sort"

	"pcstall/internal/xrand"
)

// Request classes: the admission-lane families the report buckets by.
// "cached" requests are expected to answer from the hot tier or result
// cache; "cold" requests are genuinely new simulations on the cold-sim
// lane; "figure" requests ride the figure lane.
const (
	ClassCached = "cached"
	ClassCold   = "cold"
	ClassFigure = "figure"
)

// request is one scheduled wire request.
type request struct {
	Class string // ClassCached | ClassCold | ClassFigure
	Path  string // /v1/sim or /v1/figures/<id>
	Body  string // JSON sim config; empty for figures
	// Replay attaches the remembered ETag for Body (if any) as
	// If-None-Match, exercising the 304 path.
	Replay bool
}

// Mix is one named traffic shape. generate must be deterministic in
// (rng stream, run seed, i, apps, figures).
type Mix struct {
	Name string
	Desc string

	generate func(rng *xrand.State, seed uint64, i int, apps, figures []string) request
}

// simBody renders the sparse sim config the harness sends: app + design
// + seed, everything else inherited from the server's platform so the
// job key matches what a CLI campaign on the same platform computes.
func simBody(app string, seed uint64) string {
	return fmt.Sprintf(`{"app":%q,"design":"PCSTALL","seed":%d}`, app, seed)
}

// cacheHotPool is the distinct-config pool the cache-hit-heavy mix
// cycles through: small enough that everything is warm within the first
// moments of the run.
const cacheHotPool = 8

// collideWindow is how many arrivals share one config in the
// singleflight-collision mix before it rotates to a fresh key.
const collideWindow = 32

// uniqueSeedBase offsets unique-mix seeds away from the small pool
// seeds, so "unique" traffic never accidentally warms a pool key.
const uniqueSeedBase = 1 << 20

// uniqueSeed is the sim seed of fresh-config request i in a run seeded
// with seed. Each run seed owns a block of 1<<24 body seeds, so a run
// never replays another run's "fresh" configs (and hits a cache that
// kept them) unless it offers more than 16M requests.
func uniqueSeed(seed uint64, i int) uint64 {
	return uniqueSeedBase + seed<<24 + uint64(i)
}

// Mixes are the built-in traffic shapes.
var Mixes = map[string]Mix{
	"cachehot": {
		Name: "cachehot",
		Desc: "cache-hit heavy: a small warm pool of configs, half the replays carrying If-None-Match",
		generate: func(rng *xrand.State, seed uint64, i int, apps, figures []string) request {
			slot := i % cacheHotPool
			class := ClassCached
			if i < cacheHotPool {
				class = ClassCold // first pass over the pool computes
			}
			return request{
				Class:  class,
				Path:   "/v1/sim",
				Body:   simBody(apps[slot%len(apps)], uint64(slot)),
				Replay: rng.Float64() < 0.5,
			}
		},
	},
	"collide": {
		Name: "collide",
		Desc: "singleflight-collision heavy: every arrival in a window carries the identical config, rotating to a fresh key each window",
		generate: func(rng *xrand.State, seed uint64, i int, apps, figures []string) request {
			window := i / collideWindow
			class := ClassCached
			if i%collideWindow == 0 {
				class = ClassCold // the window opener computes
			}
			return request{
				Class: class,
				Path:  "/v1/sim",
				Body:  simBody(apps[window%len(apps)], uint64(window)),
			}
		},
	},
	"unique": {
		Name: "unique",
		Desc: "unique-config heavy: every request is a fresh cold simulation (distinct seed, no reuse)",
		generate: func(rng *xrand.State, seed uint64, i int, apps, figures []string) request {
			return request{
				Class: ClassCold,
				Path:  "/v1/sim",
				Body:  simBody(apps[i%len(apps)], uniqueSeed(seed, i)),
			}
		},
	},
	"figlane": {
		Name: "figlane",
		Desc: "figure-lane: ~40% figure regenerations interleaved with unique cold sims, probing lane isolation",
		generate: func(rng *xrand.State, seed uint64, i int, apps, figures []string) request {
			if rng.Float64() < 0.4 {
				return request{
					Class: ClassFigure,
					Path:  "/v1/figures/" + figures[i%len(figures)],
				}
			}
			return request{
				Class: ClassCold,
				Path:  "/v1/sim",
				Body:  simBody(apps[i%len(apps)], uniqueSeed(seed, i)),
			}
		},
	},
}

// MixNames lists the built-in mixes in stable order.
func MixNames() []string {
	names := make([]string, 0, len(Mixes))
	for n := range Mixes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
