#!/usr/bin/env bash
# Builds the benchmark from source and runs it in bench/, passing every
# argument through (see README.md). Build outputs, the Go build cache, the
# go command's own configuration and telemetry files, and temporary files
# all stay under the build directory: $CARGO_TARGET_DIR when set, else
# .bench_build, relative to the repository root. The module has no
# dependencies to download, so the module proxy is off.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOENV=off GOPROXY=off

cd "$root/bench"
go build -o "$build/fbdbench" .
exec "$build/fbdbench" "$@"
