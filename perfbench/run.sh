#!/usr/bin/env bash
# Builds perfbench and cmd/mediatord from this checkout into .bench_build
# and runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload union-books --seed 1 --seconds 10 --trace 0
#
# Every build file and cache stays inside .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
(cd "$root" && go build -o "$out/mediatord" ./cmd/mediatord) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --mediatord "$out/mediatord" "$@"
