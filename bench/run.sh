#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the go command writes is kept under .bench_build — the build
# cache and, through XDG_CONFIG_HOME, its telemetry counters — so that
# nothing is written outside the checkout; the first build of a fresh
# checkout is therefore a cold one (about half a minute on two cores).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
