#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json "command"): build the
# benchmark from source inside the checkout, then run it with the driver's
# arguments. Everything this writes — the Go build cache, the binary,
# temporary files, socket files — stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# A build cache the caller already chose is respected; the default one
# lives in $HOME, outside the checkout.
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

go build -C "$root/benchmark" -o "$build/optcc-benchmark" .
cd "$root"
exec "$build/optcc-benchmark" "$@"
