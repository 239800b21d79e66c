#!/usr/bin/env bash
# ci.sh — the full verification gate: static checks, build, race-enabled
# tests, the benchmark module's tests and a correctness smoke of the
# benchmark runner.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
# .bench_build holds bench/ab.sh's exports of other revisions; skip it.
unformatted=$(gofmt -l . | grep -v '^\.bench_build/' || true)
if [[ -n $unformatted ]]; then
    echo "gofmt -l lists files that need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

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
go test -tags invariants ./internal/cpu/ ./internal/mctest/ ./internal/sim/ ./internal/dram/ ./internal/memctrl/ \
    ./internal/core/ ./internal/sched/

echo "== shadow checks (next-event bound vs linear scan; replay gate vs re-walk) =="
# The invariants build cross-checks the engine's next-event cycle, taken
# from the hint cache's minimum issue bound, against the linear scan: first
# on its trigger and clean-run tests, then on live simulations (an
# over-estimate would let an idle skip jump a real event). It also re-walks
# every load the CPU's closed replay gate would charge without probing, and
# every pending load when the gate visits a woken load alone; the trigger
# tests prove that a cache answer changing behind a still version panics,
# with and without a woken load.
go test -count=1 -tags invariants -run 'TestEngineShadow' ./internal/memctrl/
go test -count=1 -tags invariants -run 'TestReplayGate' ./internal/cpu/
go test -count=1 -tags invariants -run 'TestTraceSkipEquivalence' ./internal/sim/

echo "== traced simulation (memsim -trace, exported JSON must parse) =="
tracetmp="$(mktemp -d)"
trap 'rm -rf "$tracetmp"' EXIT
go run ./cmd/memsim -bench swim -mech Burst_TH -n 50000 -warmup 20000 \
    -trace "$tracetmp/trace.json" -trace-interval 500 >/dev/null
go run ./scripts/jsoncheck "$tracetmp/trace.json"

echo "== examples that drive the controller and engine by hand =="
# go build only compiles them; running them catches a runtime panic in the
# public-API demos (a custom mechanism, the Figure 1 controller trace).
go run ./examples/controller_trace >/dev/null
go run ./examples/custom_mechanism >/dev/null

echo "== benchmark module tests =="
(cd bench && go test ./...)

echo "== benchmark correctness smoke (apsi-sparse; fails on any Result-digest mismatch) =="
bash bench/run.sh -workload apsi-sparse -seconds 2 >/dev/null

echo "CI OK"
