#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run it from
# the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload spill --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, the catalogs and the traces all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$build/perfbench" .)
commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" "$@"
