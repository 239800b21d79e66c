#!/usr/bin/env bash
# ci.sh — the full verification gate: static checks, build, race-enabled
# tests, the benchmark module's tests and a correctness smoke of the
# benchmark runner.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== burstlint =="
go run ./cmd/burstlint ./...

echo "== interprocedural tier (call graph, effect summaries, whole-program analyzers) =="
# The burstlint stage above already fails if detflow/leakcheck find
# anything on the tree; this stage runs the tier's own corpus tests so a
# regression in the machinery is caught even when the tree happens to
# contain nothing for it to find.
go test -count=1 \
    ./internal/analysis/callgraph/ ./internal/analysis/summary/ \
    ./internal/analysis/detflow/ ./internal/analysis/leakcheck/

echo "== burstlint golden (CLI output/exit-code contract) =="
go test -count=1 -run 'TestGolden|TestExitCode' ./cmd/burstlint/

echo "== go test -race (full tree; covers the sim/profiling/experiments concurrency set) =="
go test -race ./...

echo "== go test -tags invariants (protocol sanitizer armed) =="
go test -tags invariants ./internal/mctest/ ./internal/sim/ ./internal/dram/ ./internal/memctrl/

echo "== next-event shadow check (hint-cache bound vs linear scan) =="
# The invariants build cross-checks the engine's next-event cycle, taken
# from the hint cache's minimum issue bound, against the linear scan: first
# on its trigger and clean-run tests, then on live simulations (an
# over-estimate would let an idle skip jump a real event).
go test -count=1 -tags invariants -run 'TestEngineShadow' ./internal/memctrl/
go test -count=1 -tags invariants -run 'TestTraceSkipEquivalence' ./internal/sim/

echo "== traced simulation (memsim -trace, exported JSON must parse) =="
tracetmp="$(mktemp -d)"
trap 'rm -rf "$tracetmp"' EXIT
go run ./cmd/memsim -bench swim -mech Burst_TH -n 50000 -warmup 20000 \
    -trace "$tracetmp/trace.json" -trace-interval 500 >/dev/null
go run ./scripts/jsoncheck "$tracetmp/trace.json"

echo "== benchmark module tests =="
(cd bench && go test ./...)

echo "== benchmark correctness smoke (apsi-sparse; fails on any Result-digest mismatch) =="
bash bench/run.sh -workload apsi-sparse -seconds 2 >/dev/null

echo "CI OK"
