#!/usr/bin/env bash
# Builds the benchmark and cmd/mmqjp-server from this checkout, then runs the
# benchmark once with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload rss --seed 1 --seconds 6 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans all go to
# .bench_build/ in the checkout; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/mmqjp-server" repro/cmd/mmqjp-server
exec "$out/perfbench" -server "$out/mmqjp-server" -spans-dir "$out/spans" "$@"
