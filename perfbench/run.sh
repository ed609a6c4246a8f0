#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload light_k32 --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build/
# at the checkout root, so a run reads and writes nothing outside the
# checkout. The build fails (and nothing is printed on stdout) when the
# crnet module is not beside this directory.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export XDG_CONFIG_HOME="$build/config"

go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
