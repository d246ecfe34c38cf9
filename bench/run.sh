#!/usr/bin/env bash
# Builds the bench into the checkout's .bench_build (Go build cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments. Fails without a result when the program's source
# is not there to build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
