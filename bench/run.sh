#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build leaves behind (binary, Go build
# cache) goes under .bench_build/ at the root of the checkout, so nothing is
# read from or written to the user's home directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$build/txperf" .
exec "$build/txperf" "$@"
