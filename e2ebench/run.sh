#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# it, passing every argument through:
#
#   bash e2ebench/run.sh --workload fig9-warm --seed 1 --seconds 30 --trace 0
#
# Run it from the checkout's root. The binary, the Go build cache, warm-set
# snapshots and span files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a fastsc checkout (go.mod and internal/server not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/e2ebench"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -buildvcs=false -o "$build/e2ebench/e2ebench" .)
exec "$build/e2ebench/e2ebench" --work-dir "$build/e2ebench" "$@"
