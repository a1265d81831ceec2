#!/usr/bin/env bash
# Builds the benchmark and the kpd daemon from the sources of the checkout it
# is started in, then runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload fp-solve --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write (Go build cache, binaries, trace files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" . && go build -o "$out/kpd" repro/cmd/kpd)
exec "$out/bench" -kpd "$out/kpd" -trace-out "$out/trace.json" "$@"
