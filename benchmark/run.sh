#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file it writes — the Go build cache, the binary, a run's scratch files —
# lives under .bench_build/ in the directory it is started from (the
# checkout root), so nothing outside the checkout is read or written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
# The build runs to stdout-silence: the last line of stdout belongs to the
# benchmark's result.
go build -C "$here" -o "$build/drsbench" . 1>&2
exec "$build/drsbench" "$@"
