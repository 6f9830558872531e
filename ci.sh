#!/bin/sh
# CI gate: every PR must build cleanly, pass vet and the formatting
# check, pass the tier-1 test suite, and race-check the concurrent
# subsystems: the streaming engine, the Replay API layer (root package),
# the consumelocald job manager and the pooled matching scratch. It also refuses committed build
# artifacts: a PR once shipped an 8.9 MB consumelocald binary at the
# repo root, and that class of mistake must never land again.
set -eux

# Guard: no tracked built binaries (by name) and no tracked file over
# 1 MB — source files are orders of magnitude smaller.
tracked_binaries="$(git ls-files | grep -E '(^|/)(consumelocal|consumelocald)$|\.(test|exe|o|a|so)$' || true)"
test -z "$tracked_binaries"
oversized="$(git ls-files -z | xargs -0 -r du -b -- | awk '$1 > 1048576 {print $2}')"
test -z "$oversized"

go build ./...
go vet ./...
# Repo-specific analyzers: borrowcheck, ctxsend, hotalloc, metricdecl,
# lockscope — see docs/LINT.md. The waiver ledger prints every
# //consumelocal:ignore marker (file:line, analyzer, reason) so the
# CI log shows exactly which findings are sanctioned and why.
vet_tool_dir="$(mktemp -d)"
trap 'rm -rf "$vet_tool_dir"' EXIT
go build -o "$vet_tool_dir/consumelocal-vet" ./cmd/consumelocal-vet
go vet -vettool="$vet_tool_dir/consumelocal-vet" ./...
"$vet_tool_dir/consumelocal-vet" -ledger
fmt_drift="$(gofmt -s -l .)"
test -z "$fmt_drift"
go test ./...
# The benchmark harness is a separate module (perfbench/go.mod) that the
# root `go test ./...` skips; vet and test it so a change to the root
# API cannot break the benchmark unseen.
(cd perfbench && go vet ./... && go test ./...)
go test -race . ./internal/engine/... ./cmd/consumelocald/... \
	./internal/joblog/... ./internal/loadgen/... ./internal/matching/... ./internal/sim/... ./internal/swarm/...
# Write-ahead ordering stress: the live stream and the journal once
# diverged under racing producers on only a few percent of runs, so the
# durable racing-producer and fault-injection tests run 30 times each.
go test -race -count=30 -run '^(TestIngestRacingProducers|TestIngestFaultInjection)$/^durable$' ./cmd/consumelocald
# Differential fuzz: LocalityFirst's grouping order (stableOrder plus
# the counting sort by PoP rank) against the comparator-sort reference
# it replaced must agree bit for bit, and stableOrder alone must match
# a stable comparator sort; bounded to 10 s and 5 s so the gate stays
# quick.
go test -run '^$' -fuzz FuzzMatchIntoReference -fuzztime 10s ./internal/matching
go test -run '^$' -fuzz FuzzStableOrder -fuzztime 5s ./internal/matching
# Metrics lint: every /metrics scrape must parse under the exposition
# linter (HELP/TYPE metadata, histogram suffixes, no duplicate series)
# and expose the documented families — see docs/OBSERVABILITY.md.
go test -count=1 -run 'TestMetrics|TestHealthzPayload' ./cmd/consumelocald
go test -count=1 -run 'TestParseExposition|TestObsCounterAllocs|TestScrapeSteadyStateAllocs' ./internal/obs
# Benchmark smoke: one iteration of every benchmark, so the perf
# harness (make bench, cmd/consumelocal bench) can't bit-rot unnoticed.
go test -run '^$' -bench . -benchtime 1x ./...
# Load-harness smoke: spawn a real consumelocald and drive a small
# concurrent fleet through the loadtest subcommand; the report must be
# well-formed with zero 5xx — see docs/LOADTEST.md.
./loadtest-smoke.sh
# Fault-injection smoke: same harness with -chaos — SIGKILL and restart
# a durable daemon mid-run; the report must show a clean recovery and a
# reconciled session ledger — see docs/DURABILITY.md.
./chaos-smoke.sh
