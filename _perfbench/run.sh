#!/usr/bin/env bash
# Builds cmd/admitd and the benchmark from source, then runs one workload:
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash _perfbench/run.sh --selftest
#
# Run it from the repository root. Every build product, Go cache and
# scratch file stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/admitd/main.go || ! -f internal/exp/campaign.go ]]; then
	echo "perfbench: run from the repository root (cmd/admitd and internal/exp are missing here)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/work"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -o "$build/bin/admitd" ./cmd/admitd
go -C _perfbench build -o "$build/bin/perfbench" .

exec "$build/bin/perfbench" -admitd "$build/bin/admitd" -work "$build/work" -spec BENCHMARK.json "$@"
