#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh -workload ref-local -seed 1 -seconds 12 -trace 0
#
# Everything the build and the run write — the Go build cache, temp
# dirs, stores, the binary, trace files — stays under .bench_build/ in
# the working directory. The toolchain is the local one; nothing is
# downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CACHE_HOME="$out/cache" XDG_CONFIG_HOME="$out/config"

go -C "$root/benchmark" build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
