#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload vector-4m --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and temporary files all stay under
# .bench_build/ in the current directory (CARGO_TARGET_DIR, when set,
# names that directory instead).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off

here="$(cd "$(dirname "$0")" && pwd)"
(cd "$here" && go build -o "$build/mv2bench" .) >&2
exec "$build/mv2bench" "$@"
