#!/usr/bin/env bash
# Builds the ingest benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash ingestbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
# Build cache, temporary files and the binary stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOMODCACHE="$out/gomod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/ingestbench" build -o "$out/ingestbench" . >&2
exec "$out/ingestbench" "$@"
