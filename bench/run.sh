#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the checkout and runs it with
# the given flags. Everything the Go toolchain writes (build cache, temp
# files, the binary) stays inside the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$bench" -o "$build/sama-bench" .
cd "$root"
exec "$build/sama-bench" "$@"
