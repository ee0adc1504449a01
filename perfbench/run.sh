#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload kernel-ref --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --all --seed 1 --seconds 20
#
# Everything the build and the runs leave behind goes under .bench_build/
# at the root of the checkout (Go build cache included).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/simnet" ]]; then
	echo "perfbench: $root does not hold the banyan module; nothing to measure" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
(cd "$here" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
