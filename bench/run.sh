#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (its own
# module, bench/go.mod) into .bench_build/ at the root of the checkout
# and runs it with the caller's arguments. Everything the Go tool writes
# (build cache, telemetry) is pointed inside .bench_build/, so a run
# reads and writes only inside its checkout. The benchmark itself then
# builds cmd/saga and cmd/figures (timed as harness.build_s).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

cd "$root/bench"
go build -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
