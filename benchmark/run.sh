#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the go tool writes (build cache, telemetry, the binary) goes
# under .bench_build/ so a run touches nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/rpcoib-benchmark" .
exec "$build/rpcoib-benchmark" "$@"
