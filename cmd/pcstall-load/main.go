// Command pcstall-load drives pcstall-serve with deterministic
// open-loop traffic and reports per-class throughput, latency
// percentiles, shed rate, and 304 rate against the offered load.
//
// Usage:
//
//	pcstall-load -targets http://127.0.0.1:8080 -mix cachehot -rate 50 -duration 10s
//
// One invocation is one offered-load point for one mix. The arrival
// schedule is fixed up front from -seed — the harness keeps offering
// load at the scheduled instants even while the server sheds, so shed
// rate is measured against a truthful offered rate rather than a client
// that politely backed off.
//
// Exit status: 0 on a clean run; 1 when the run recorded harness errors
// or digest corruption, when -max-shed is exceeded, or when the report
// fails its consistency check; 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pcstall/internal/load"
	"pcstall/internal/version"
)

func main() {
	targets := flag.String("targets", "http://127.0.0.1:8080", "comma-separated pcstall-serve base URLs (round-robin)")
	mix := flag.String("mix", "", "traffic mix: "+strings.Join(load.MixNames(), ", "))
	rate := flag.Float64("rate", 20, "offered arrival rate, requests/second")
	duration := flag.Duration("duration", 5*time.Second, "scheduled arrival window")
	seed := flag.Uint64("seed", 1, "schedule and request-sequence seed")
	apps := flag.String("apps", "comd", "comma-separated workloads for sim configs")
	figures := flag.String("figures", "10", "comma-separated figure ids for figure-lane traffic")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request timeout")
	maxShed := flag.Int("max-shed", -1, "fail (exit 1) if total sheds exceed this (-1 disables the check)")
	listMixes := flag.Bool("mixes", false, "list the built-in mixes and exit")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if *listMixes {
		for _, name := range load.MixNames() {
			fmt.Printf("%-9s %s\n", name, load.Mixes[name].Desc)
		}
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pcstall-load: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	if *mix == "" {
		fmt.Fprintf(os.Stderr, "pcstall-load: -mix is required (available: %s)\n", strings.Join(load.MixNames(), ", "))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := load.Run(ctx, load.Config{
		Targets:  splitList(*targets),
		Mix:      *mix,
		Rate:     *rate,
		Duration: *duration,
		Seed:     *seed,
		Apps:     splitList(*apps),
		Figures:  splitList(*figures),
		Timeout:  *timeout,
		Log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcstall-load: %v\n", err)
		os.Exit(2)
	}
	rep.Fprint(os.Stdout)
	if err := rep.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pcstall-load: report failed validation: %v\n", err)
		os.Exit(1)
	}
	fail := false
	if rep.Errors > 0 || rep.Corrupt > 0 {
		fmt.Fprintf(os.Stderr, "pcstall-load: %d errors, %d corrupt responses\n", rep.Errors, rep.Corrupt)
		fail = true
	}
	if *maxShed >= 0 {
		if shed := rep.TotalShed(); shed > *maxShed {
			fmt.Fprintf(os.Stderr, "pcstall-load: %d sheds exceed -max-shed %d\n", shed, *maxShed)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
}

// splitList splits a comma-separated flag, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
