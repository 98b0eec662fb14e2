#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, from the checkout root:
#
#   bash _vcbench/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (the Go build cache included). Without the repository's own
# sources beside this directory the build fails and nothing is run.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -buildvcs=false -o "$build/vcbench" .)
exec "$build/vcbench" "$@"
