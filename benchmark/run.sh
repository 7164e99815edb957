#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from this checkout's
# sources, then runs the benchmark from the checkout root. Everything
# written — build cache, binaries, scratch space — stays under
# .bench_build/ and benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# The go command's own files stay in the checkout too, and nothing is
# fetched: the module has no dependencies beyond the repository.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd benchmark && go build -o "$build/bin/benchmark" . && go build -o "$build/bin/lfksimd" repro/cmd/lfksimd)
exec "$build/bin/benchmark" "$@"
