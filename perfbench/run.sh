#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the
# repository root:
#   bash perfbench/run.sh --workload eval-mem --seed 1 --seconds 26 --trace 0
# The toolchain's caches and home directory, the binary and every file
# the benchmark writes stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
