#!/bin/bash
# Builds the benchmark inside the checkout it is started from and runs it
# with the arguments given. Nothing is read or written outside that
# directory: the Go build cache, the module cache, temporary files and the
# tool's own configuration all live under .bench_build.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$build" "$@"
