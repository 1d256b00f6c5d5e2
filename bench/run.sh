#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root, for example:
#
#   bash bench/run.sh --workload table1-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (Go build cache, telemetry counters,
# temporary files and the binary) stays under bench/.build/.
set -euo pipefail
if [[ ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$PWD/bench/.build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$out/shadowbench" . >&2
exec "$out/shadowbench" "$@"
