#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload <figures|sim-cold|sim-hot|fleet> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Every file the build writes (compiler cache, binary, Go's own state)
# stays under .bench_build/ in the current directory. Outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
