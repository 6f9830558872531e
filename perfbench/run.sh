#!/usr/bin/env bash
# Builds the daemon under test and the benchmark from source, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay-vod --seed 1 --seconds 25 --trace 0
#
# Every build and run artefact stays under .bench_build in the current
# directory: the Go build cache, the binaries, the generated traces and
# the daemon's data directories.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/consumelocald ]]; then
	echo "perfbench: run from the repository root; go.mod and cmd/consumelocald are missing" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/config/go/telemetry" "$out/tmp"
# Telemetry off: otherwise the go command forks a detached upload
# process that outlives this script.
printf 'off' > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/consumelocald" ./cmd/consumelocald
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/consumelocald" -workdir "$out/run" "$@"
