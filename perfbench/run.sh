#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fit-dense --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, temporary files, server
# state) stays under .bench_build and .bench_state in the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" ]]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod or internal/server)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOSUMDB=off
(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" "$@"
