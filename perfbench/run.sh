#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload skewed-greedy --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh compare -parent DIR -change DIR
#
# Every build artefact, input file and trace stays under .bench_build/ in the
# current directory: the Go build cache is pointed there, the toolchain is
# never upgraded, and nothing is fetched.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .)
if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" -workdir "$out" "$@"
