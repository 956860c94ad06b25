#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument on:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the repository; the toolchain is never downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
