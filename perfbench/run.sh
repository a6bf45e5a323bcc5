#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload triage-warm --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout's root. The binary, the Go build cache, the
# corpora a run creates and the traced run's output all stay under
# $CARGO_TARGET_DIR (default .bench_build). Without the repository's
# sources beside it the build fails and the script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

# Every cache and config directory the Go toolchain touches lives in
# the build directory; nothing is fetched.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$TMPDIR"

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build/perfbench-run" --out "$build/perfbench-trace" "$@"
