#!/bin/sh
# CI gate: formatting, vet, build, tests, and race coverage for the
# packages that execute concurrently (orchestrate workers, parallel exp
# sweeps, shared trace recorders). Run from the repo root:
#
#	./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test"
go test ./...

echo "==> go test -race (concurrent packages)"
go test -race ./internal/telemetry ./internal/tracing ./internal/orchestrate ./internal/trace ./internal/exp ./internal/serve ./internal/dist ./internal/netchaos ./internal/wire ./internal/load

echo "==> go test -shuffle=on (order-independence of the serving/orchestration tests)"
go test -shuffle=on -count=1 ./internal/serve ./internal/orchestrate ./internal/telemetry

echo "==> go test -race (chaos / hardened-governor / watchdog paths)"
# The fault-injection engine and the watchdog run on the simulation hot
# path; exercise them under the race detector too.
go test -race -run 'Chaos|Harden|Deadlock|Watchdog|Stuck' ./internal/chaos ./internal/dvfs ./internal/sim

echo "==> go test -race (sim core / CoW oracle forks / shared cache arrays)"
# The oracle's copy-on-write clones let distinct samplers fork the same
# quiescent parent GPU from different goroutines, sharing cache entry
# arrays until first write. The whole sim/mem/oracle surface runs under
# the race detector so a privatization bug (a fork writing a still-shared
# array) fails here rather than corrupting a campaign.
go test -race ./internal/sim ./internal/mem ./internal/oracle

echo "==> alloc gate (epoch hot path must not allocate)"
# RunUntil + CollectEpoch + ActivePCs per epoch is the per-epoch hot path
# every DVFS campaign and every oracle fork pays; it is tuned to zero
# steady-state allocations (scratch reuse, pooled cache arrays). The
# benchtime must be high enough to amortize the rare one-off buffer
# growth in the first iterations — at 60x a single grow rounds to 0
# allocs/op, while a real per-epoch allocation shows up as >= 1.
alloc_out=$(go test -run '^$' -bench 'BenchmarkEpochHotPath' -benchtime 60x ./internal/sim/)
echo "$alloc_out" | grep allocs/op || true
if echo "$alloc_out" | awk '/allocs\/op/ { if ($(NF-1) + 0 > 0) bad = 1 } END { exit bad }'; then
	:
else
	echo "alloc gate: epoch hot path allocates (want 0 allocs/op)" >&2
	exit 1
fi

echo "==> alloc gate (oracle SampleNext recycles its forks)"
# Each Sampler re-clones into one recycled fork per worker
# (sim.GPU.CloneInto), so a sampling sweep allocates little beyond the
# returned Truth. Re-allocating forks costs about 2.09 MB per sweep; the
# gate fails any sub-benchmark above 0.6 MB/op.
sample_out=$(go test -run '^$' -bench 'BenchmarkSampleNext' -benchmem -benchtime 20x ./internal/oracle/)
echo "$sample_out" | grep B/op || true
if echo "$sample_out" | awk '
	/B\/op/ { n++; for (i = 2; i <= NF; i++) if ($i == "B/op" && $(i-1) + 0 > 600000) bad = 1 }
	END { exit (bad || n == 0) }'; then
	:
else
	echo "alloc gate: oracle SampleNext allocates more than 0.6 MB/op (or did not run)" >&2
	exit 1
fi

echo "==> fuzz smoke (program builder, config validator, chaos and netchaos spec round-trips, /v1/sim config merge)"
# Short deterministic-budget fuzz passes; CI catches crashes and invariant
# violations, the long exploratory runs stay manual.
go test -run '^$' -fuzz '^FuzzProgramBuilder$' -fuzztime 15s ./internal/isa
go test -run '^$' -fuzz '^FuzzConfigValidate$' -fuzztime 15s ./internal/sim
go test -run '^$' -fuzz '^FuzzChaosSpec$' -fuzztime 10s ./internal/chaos
go test -run '^$' -fuzz '^FuzzNetchaosSpec$' -fuzztime 10s ./internal/netchaos
go test -run '^$' -fuzz '^FuzzSimRequest$' -fuzztime 10s ./internal/serve

echo "==> kill-resume smoke (SIGINT mid-campaign, -resume, byte-identical output)"
# A campaign killed mid-flight must drain gracefully (completed results
# flushed to the cache, cancelled jobs excluded) and a -resume rerun must
# recompute only the missing jobs and print byte-identical figures.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/pcstall-exp" ./cmd/pcstall-exp
go build -o "$smoke/tracecheck" ./scripts/tracecheck
smoke_flags="-cus 4 -scale 0.3 -apps comd,hpgmg -j 2"
# Reference: the same campaign run cold to completion.
"$smoke/pcstall-exp" $smoke_flags -cache-dir "$smoke/ref" 1a > "$smoke/ref.out" 2> "$smoke/ref.err"
# Interrupted run: fresh cache dir, SIGINT one second in, or later if no
# job has completed by then (on a loaded host the first result can land
# after the second has passed, and a drain with nothing completed has
# nothing to flush).
"$smoke/pcstall-exp" $smoke_flags -cache-dir "$smoke/kill" 1a > "$smoke/kill.out" 2> "$smoke/kill.err" &
kill_pid=$!
sleep 1
for _ in $(seq 1 300); do
	[ -s "$smoke/kill/results.jsonl" ] && break
	kill -0 "$kill_pid" 2>/dev/null || break
	sleep 0.1
done
kill -INT "$kill_pid" 2>/dev/null || true
kill_status=0
wait "$kill_pid" || kill_status=$?
if [ "$kill_status" = 130 ]; then
	if [ ! -s "$smoke/kill/results.jsonl" ]; then
		echo "kill-resume smoke: drain flushed no completed results" >&2
		cat "$smoke/kill.err" >&2
		exit 1
	fi
else
	# The campaign outran the signal on this machine; the resume below
	# then just replays a complete cache, which must still be identical.
	echo "    note: campaign finished before SIGINT landed (status $kill_status)"
fi
"$smoke/pcstall-exp" $smoke_flags -cache-dir "$smoke/kill" -resume 1a > "$smoke/resume.out" 2> "$smoke/resume.err"
if ! cmp -s "$smoke/ref.out" "$smoke/resume.out"; then
	echo "kill-resume smoke: resumed output differs from cold reference" >&2
	diff "$smoke/ref.out" "$smoke/resume.out" >&2 || true
	exit 1
fi
echo "    resumed campaign output byte-identical to cold run"

echo "==> chaos smoke (fixed-seed fault injection is reproducible)"
# A chaos-on campaign at a fixed seed must print byte-identical figures
# across runs — fault injection is part of the deterministic replay, not
# a source of flakiness. -no-cache keeps both runs honest (computed, not
# replayed from disk).
# Same platform as the reference run: the only delta is the chaos spec,
# so chaos1 differing from ref.out isolates the injection itself.
chaos_flags="$smoke_flags -no-cache -chaos level=0.2"
"$smoke/pcstall-exp" $chaos_flags 1a > "$smoke/chaos1.out" 2> "$smoke/chaos1.err"
"$smoke/pcstall-exp" $chaos_flags 1a > "$smoke/chaos2.out" 2> "$smoke/chaos2.err"
if ! cmp -s "$smoke/chaos1.out" "$smoke/chaos2.out"; then
	echo "chaos smoke: two fixed-seed chaos runs diverged" >&2
	diff "$smoke/chaos1.out" "$smoke/chaos2.out" >&2 || true
	exit 1
fi
if cmp -s "$smoke/ref.out" "$smoke/chaos1.out"; then
	echo "chaos smoke: chaos-on output identical to fault-free reference (injection inert?)" >&2
	exit 1
fi
echo "    chaos-on campaign reproducible and distinct from fault-free run"

echo "==> server smoke (pcstall-serve: boot, submit over HTTP, poll, drain)"
# The serving layer must survive a full client round-trip: boot on a
# random port, admit an async simulation over HTTP, poll the job to
# completion, then drain cleanly on SIGTERM — exiting 0 with a flushed,
# non-empty manifest that records the job the client submitted.
go build -o "$smoke/pcstall-serve" ./cmd/pcstall-serve
# Each announcement file is created before its server starts: the
# background job opens its redirect only after the fork, and under set -e
# a poll that reads the file first would end the script.
: > "$smoke/serve.out"
"$smoke/pcstall-serve" -addr 127.0.0.1:0 -cus 4 -scale 0.3 -j 2 \
	-cache-dir "$smoke/serve-cache" > "$smoke/serve.out" 2> "$smoke/serve.err" &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
	base=$(sed -n 's#^pcstall-serve: listening on \(http://.*\)$#\1#p' "$smoke/serve.out")
	[ -n "$base" ] && break
	sleep 0.1
done
if [ -z "$base" ]; then
	echo "server smoke: server never announced its address" >&2
	cat "$smoke/serve.err" >&2
	exit 1
fi
job=$(curl -sf -X POST "$base/v1/sim?async=1" \
	-d '{"app":"comd","design":"PCSTALL"}' | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)
if [ -z "$job" ]; then
	echo "server smoke: async submit returned no job id" >&2
	cat "$smoke/serve.err" >&2
	exit 1
fi
status=""
for _ in $(seq 1 150); do
	status=$(curl -sf "$base/v1/jobs/$job" | sed -n 's/.*"status": "\([a-z]*\)".*/\1/p' | head -n 1)
	[ "$status" = done ] && break
	case "$status" in error|cancelled)
		echo "server smoke: job settled as $status" >&2
		curl -sf "$base/v1/jobs/$job" >&2 || true
		exit 1
	esac
	sleep 0.2
done
if [ "$status" != done ]; then
	echo "server smoke: job never completed (last status: ${status:-none})" >&2
	cat "$smoke/serve.err" >&2
	exit 1
fi
kill -TERM "$serve_pid"
serve_status=0
wait "$serve_pid" || serve_status=$?
if [ "$serve_status" != 0 ]; then
	echo "server smoke: SIGTERM drain exited $serve_status, want 0" >&2
	cat "$smoke/serve.err" >&2
	exit 1
fi
if [ ! -s "$smoke/serve-cache/manifest.json" ] || ! grep -q "\"$job\"" "$smoke/serve-cache/manifest.json"; then
	echo "server smoke: drained manifest missing or does not record job $job" >&2
	exit 1
fi
echo "    served job $job completed over HTTP; drain flushed the manifest"

echo "==> load smoke (pcstall-load: open-loop mixes, zero sheds/errors)"
# A short deterministic pcstall-load run per class family (cached-heavy,
# cold-heavy, figure-lane) against a local server. At these offered
# rates no lane saturates, so the lane contract is: zero sheds on every
# class (-max-shed 0) and zero harness errors / digest mismatches
# (pcstall-load exits 1 on either, and on a report that fails its
# consistency check). Serving latency and goodput are measured by
# perfbench's sim-cold and sim-hot workloads, not here.
go build -o "$smoke/pcstall-load" ./cmd/pcstall-load
: > "$smoke/loadsrv.out"
"$smoke/pcstall-serve" -addr 127.0.0.1:0 -cus 4 -scale 0.3 -apps comd,hpgmg -j 2 \
	-cache-dir "$smoke/load-cache" > "$smoke/loadsrv.out" 2> "$smoke/loadsrv.err" &
loadsrv_pid=$!
load_base=""
for _ in $(seq 1 100); do
	load_base=$(sed -n 's#^pcstall-serve: listening on \(http://.*\)$#\1#p' "$smoke/loadsrv.out")
	[ -n "$load_base" ] && break
	sleep 0.1
done
if [ -z "$load_base" ]; then
	echo "load smoke: server never announced its address" >&2
	cat "$smoke/loadsrv.err" >&2
	exit 1
fi
for mixspec in "cachehot 30" "unique 10" "figlane 5"; do
	mix=${mixspec% *}
	rate=${mixspec#* }
	if ! "$smoke/pcstall-load" -targets "$load_base" -mix "$mix" -rate "$rate" \
		-duration 2s -seed 1 -apps comd,hpgmg -figures 10 -timeout 120s -max-shed 0 \
		> "$smoke/load.$mix.out" 2> "$smoke/load.$mix.err"; then
		echo "load smoke: mix $mix failed (harness errors, corruption, or sheds)" >&2
		cat "$smoke/load.$mix.out" "$smoke/load.$mix.err" >&2
		exit 1
	fi
done
kill -TERM "$loadsrv_pid" 2>/dev/null || true
wait "$loadsrv_pid" 2>/dev/null || true
echo "    three mixes clean (no sheds, no errors)"

echo "==> distributed smoke (two-backend fleet; byte-identical figures; survives a killed worker)"
# A -backends campaign must produce byte-identical figure output and the
# same manifest job set as the serial reference — including when one
# backend is killed mid-run and its jobs are stolen by the survivor.
start_backend() {
	bname=$1
	shift
	: > "$smoke/$bname.out"
	"$smoke/pcstall-serve" -addr 127.0.0.1:0 -cus 4 -scale 0.3 -j 2 "$@" \
		> "$smoke/$bname.out" 2> "$smoke/$bname.err" &
	backend_pid=$!
	backend_base=""
	for _ in $(seq 1 100); do
		backend_base=$(sed -n 's#^pcstall-serve: listening on \(http://.*\)$#\1#p' "$smoke/$bname.out")
		[ -n "$backend_base" ] && break
		sleep 0.1
	done
	if [ -z "$backend_base" ]; then
		echo "distributed smoke: backend $bname never announced its address" >&2
		cat "$smoke/$bname.err" >&2
		exit 1
	fi
}
start_backend w1 -trace-out "$smoke/w1.trace.json"; w1_pid=$backend_pid; w1_base=$backend_base
start_backend w2 -trace-out "$smoke/w2.trace.json"; w2_pid=$backend_pid; w2_base=$backend_base
"$smoke/pcstall-exp" $smoke_flags -backends "$w1_base,$w2_base" -trace-out "$smoke/dist.trace.json" \
	-cache-dir "$smoke/dist" 1a > "$smoke/dist.out" 2> "$smoke/dist.err"
if ! cmp -s "$smoke/ref.out" "$smoke/dist.out"; then
	echo "distributed smoke: fleet output differs from serial reference" >&2
	diff "$smoke/ref.out" "$smoke/dist.out" >&2 || true
	exit 1
fi
grep -o '"key": "[^"]*"' "$smoke/ref/manifest.json" | sort > "$smoke/ref.keys"
grep -o '"key": "[^"]*"' "$smoke/dist/manifest.json" | sort > "$smoke/dist.keys"
if ! cmp -s "$smoke/ref.keys" "$smoke/dist.keys"; then
	echo "distributed smoke: fleet manifest job set differs from serial reference" >&2
	diff "$smoke/ref.keys" "$smoke/dist.keys" >&2 || true
	exit 1
fi
if ! grep -q '"source": "remote:' "$smoke/dist/manifest.json"; then
	echo "distributed smoke: no job carries remote provenance; fleet never ran anything" >&2
	exit 1
fi
kill "$w1_pid" "$w2_pid" 2>/dev/null || true
wait "$w1_pid" 2>/dev/null || true
wait "$w2_pid" 2>/dev/null || true
echo "    fleet campaign byte-identical to serial reference (figures and manifest job set)"
# The drained backends and the coordinator each exported their flight
# recorder. The three files must parse, every span's parent must resolve
# somewhere in the set, and at least one trace ID must cross a process
# boundary (the X-Pcstall-Trace stitch).
"$smoke/tracecheck" -require-cross \
	"$smoke/dist.trace.json" "$smoke/w1.trace.json" "$smoke/w2.trace.json" || {
	echo "distributed smoke: trace export failed validation" >&2
	exit 1
}
echo "    distributed traces stitch across coordinator and backends"
# Fresh backends (empty caches, so jobs genuinely re-run), one killed
# mid-campaign: the coordinator must steal its jobs and still produce
# identical bytes.
start_backend w3; w3_pid=$backend_pid; w3_base=$backend_base
start_backend w4; w4_pid=$backend_pid; w4_base=$backend_base
"$smoke/pcstall-exp" $smoke_flags -backends "$w3_base,$w4_base" -trace-out "$smoke/dist2.trace.json" \
	-cache-dir "$smoke/dist2" 1a > "$smoke/dist2.out" 2> "$smoke/dist2.err" &
dist_pid=$!
sleep 1
kill_landed=0
if kill -KILL "$w3_pid" 2>/dev/null; then
	kill_landed=1
	wait "$w3_pid" 2>/dev/null || true
else
	echo "    note: campaign finished before the backend kill landed"
fi
dist_status=0
wait "$dist_pid" || dist_status=$?
if [ "$dist_status" != 0 ]; then
	echo "distributed smoke: campaign failed ($dist_status) after a backend was killed" >&2
	cat "$smoke/dist2.err" >&2
	exit 1
fi
if ! cmp -s "$smoke/ref.out" "$smoke/dist2.out"; then
	echo "distributed smoke: output diverged after a backend was killed mid-run" >&2
	diff "$smoke/ref.out" "$smoke/dist2.out" >&2 || true
	exit 1
fi
kill "$w4_pid" 2>/dev/null || true
wait "$w4_pid" 2>/dev/null || true
echo "    campaign survived a killed backend with byte-identical output"
# The coordinator's trace must record the recovery: a job that was in
# flight on the killed backend is requeued and then stolen by the
# survivor (or degraded to the local lane), as span events on its
# dist.dispatch span.
"$smoke/tracecheck" "$smoke/dist2.trace.json" > /dev/null
if [ "$kill_landed" = 1 ]; then
	if ! "$smoke/tracecheck" -require-event steal "$smoke/dist2.trace.json" > /dev/null 2>&1 &&
		! "$smoke/tracecheck" -require-event requeue "$smoke/dist2.trace.json" > /dev/null 2>&1; then
		echo "distributed smoke: killed-backend trace records neither a steal nor a requeue event" >&2
		exit 1
	fi
	echo "    killed-backend recovery visible in the coordinator's trace"
fi

echo "==> netchaos smoke (campaign through a fault-injecting proxy; byte-identical figures)"
# A campaign where one backend sits behind pcstall-netchaos — seeded
# refusals, latency, stalls, truncations, bit flips, resets, injected
# errors on every sim exchange — must still complete with figures
# byte-identical to the serial reference. The digest check catches
# corruption, the body budget bounds stalls, and re-steal moves the job
# to the clean worker; nothing corrupted may settle.
go build -o "$smoke/pcstall-netchaos" ./cmd/pcstall-netchaos
start_backend w5; w5_pid=$backend_pid; w5_base=$backend_base
start_backend w6; w6_pid=$backend_pid; w6_base=$backend_base
: > "$smoke/ncproxy.out"
"$smoke/pcstall-netchaos" -listen 127.0.0.1:0 -target "$w5_base" \
	-faults level=0.35,seed=42 > "$smoke/ncproxy.out" 2> "$smoke/ncproxy.err" &
ncproxy_pid=$!
nc_base=""
for _ in $(seq 1 100); do
	nc_base=$(sed -n 's#^pcstall-netchaos: listening on \(http://[^ ]*\) .*#\1#p' "$smoke/ncproxy.out")
	[ -n "$nc_base" ] && break
	sleep 0.1
done
if [ -z "$nc_base" ]; then
	echo "netchaos smoke: proxy never announced its address" >&2
	cat "$smoke/ncproxy.err" >&2
	exit 1
fi
if ! "$smoke/pcstall-exp" $smoke_flags -backends "$nc_base,$w6_base" -backend-body-timeout 2s \
	-cache-dir "$smoke/nc" 1a > "$smoke/nc.out" 2> "$smoke/nc.err"; then
	echo "netchaos smoke: campaign failed under fault injection" >&2
	cat "$smoke/nc.err" >&2
	exit 1
fi
if ! cmp -s "$smoke/ref.out" "$smoke/nc.out"; then
	echo "netchaos smoke: faulted-fleet output differs from serial reference" >&2
	diff "$smoke/ref.out" "$smoke/nc.out" >&2 || true
	exit 1
fi
nc_stats=$(curl -sf "$nc_base/netchaos/stats")
nc_exchanges=$(echo "$nc_stats" | sed -n 's/.*"exchanges": \([0-9]*\).*/\1/p' | head -n 1)
nc_clean=$(echo "$nc_stats" | sed -n 's/.*"clean": \([0-9]*\).*/\1/p' | head -n 1)
nc_injected=$(( ${nc_exchanges:-0} - ${nc_clean:-0} ))
if [ -z "$nc_injected" ] || [ "$nc_injected" -lt 1 ]; then
	echo "netchaos smoke: proxy injected no faults (stats: $nc_stats) — the invariant was not exercised" >&2
	exit 1
fi
kill "$w5_pid" "$w6_pid" "$ncproxy_pid" 2>/dev/null || true
wait "$w5_pid" 2>/dev/null || true
wait "$w6_pid" 2>/dev/null || true
wait "$ncproxy_pid" 2>/dev/null || true
echo "    campaign absorbed $nc_injected injected wire faults with byte-identical output"

echo "==> bench smoke (telemetry-off runner vs BENCH_telemetry.json)"
# The disabled-telemetry path is the one every simulation pays. Absolute
# ns/op is useless on this shared box (machine speed drifts 30% between
# sessions), so the gate is load-invariant: the Off/On ratio must not
# regress >10% against the ratio recorded in BENCH_telemetry.json. One
# test binary runs 15 rounds of one Off and one On run, alternating
# which goes first; each round's two runs are adjacent in time, so host
# drift cancels in that round's Off/On ratio, and the gate reads the
# median of the 15 ratios. (Single runs swing 15-30% here, so
# per-variant minima compare two outliers: min-of-7 failed half the
# windows of a 30-round sample whose median ratio was 1.00.) The strict
# (2%) absolute comparison lives in that file's interleaved-worktree
# protocol.
ref_off=$(sed -n 's/.*"run_telemetry_off_ns_per_op": \([0-9]*\).*/\1/p' BENCH_telemetry.json)
ref_on=$(sed -n 's/.*"run_telemetry_on_ns_per_op": \([0-9]*\).*/\1/p' BENCH_telemetry.json)
go test -c -o "$smoke/dvfs.test" ./internal/dvfs/
rounds=""
for round in $(seq 1 15); do
	if [ $((round % 2)) = 1 ]; then order="Off On"; else order="On Off"; fi
	for variant in $order; do
		ns=$(cd internal/dvfs && "$smoke/dvfs.test" -test.run '^$' -test.bench "^BenchmarkRunTelemetry${variant}\$" \
			-test.benchtime 20x -test.timeout 10m | awk '/^BenchmarkRunTelemetry/ {print int($3)}')
		eval "got_$variant=\${ns:-0}"
	done
	rounds="$rounds$got_Off $got_On
"
done
ratio=$(printf '%s' "$rounds" | awk '$1 > 0 && $2 > 0 {print $1 / $2}' | sort -g |
	awk '{r[NR] = $1} END {if (NR == 15) print r[8]}')
if [ -z "$ref_off" ] || [ -z "$ref_on" ] || [ -z "$ratio" ]; then
	echo "bench smoke: missing reference (${ref_off:-?}/${ref_on:-?}) or a round without a measurement:" >&2
	printf '%s' "$rounds" >&2
	exit 1
fi
echo "    reference off/on ${ref_off}/${ref_on} ns/op, measured median off/on ratio $ratio over 15 alternated rounds"
# ratio <= (ref_off/ref_on) * 1.10, cross-multiplied.
if ! awk -v r="$ratio" -v ro="$ref_off" -v rn="$ref_on" 'BEGIN { exit !(r * rn * 100 <= ro * 110) }'; then
	echo "bench smoke: disabled-telemetry path regressed >10% relative to enabled (median off/on $ratio vs reference $ref_off/$ref_on); rounds (off on ns/op):" >&2
	printf '%s' "$rounds" >&2
	exit 1
fi

echo "CI OK"
