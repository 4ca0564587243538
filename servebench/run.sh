#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash servebench/run.sh --workload correction --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The Go build cache, the binary
# and the benchmark's scratch files stay under .bench_build there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
