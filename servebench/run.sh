#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash servebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and temporary files all live under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/servebench" .)
cd "$root"
exec "$out/servebench" "$@"
