#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash campaignbench/run.sh --workload fig12-cold --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and run scratch space all live under
# .bench_build/ in the checkout. See campaignbench/README.md.
set -euo pipefail
out="$(pwd)/.bench_build/campaignbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd campaignbench && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" --out "$out" "$@"
