#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the run write stays under .bench_build/: the Go
# build cache, the binary, temporary store directories and traced-run
# output. Arguments pass through to the benchmark, e.g.
#
#	bash bench/run.sh -workload srm-hit -seed 3 -seconds 20 -trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd bench && go build -o "$out/fbbench" .)
exec "$out/fbbench" "$@"
