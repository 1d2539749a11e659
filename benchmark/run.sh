#!/usr/bin/env bash
# Builds the Cobra benchmark from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C "$root/benchmark" build -o "$out/cobra-bench-e2e" .
exec "$out/cobra-bench-e2e" -workdir "$out/work" "$@"
