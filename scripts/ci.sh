#!/usr/bin/env bash
# ci.sh — the full verification gate: static checks, build, race-enabled
# tests, the benchmark module's tests, a correctness smoke of the
# benchmark runner and the byte identity of experiments_output.txt.
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

echo "== go vet + burstlint (benchmark module) =="
# bench/ is a module of its own, so the ./... patterns above stop at its
# boundary; its cmd/* packages are in errflow's scope.
(cd bench && go vet ./... && go run burstmem/cmd/burstlint ./...)

echo "== burstlint golden (CLI output/exit-code contract) =="
go test -count=1 -run 'TestGolden|TestExitCode' ./cmd/burstlint/

echo "== go test -race (full tree; covers the sim/profiling/experiments concurrency set) =="
go test -race ./...

echo "== go test -tags invariants (protocol sanitizer armed) =="
go test -tags invariants ./internal/cpu/ ./internal/mctest/ ./internal/sim/ ./internal/dram/ ./internal/memctrl/ \
    ./internal/core/ ./internal/sched/

echo "== shadow checks (next-event bound vs linear scan; replay and store gates vs re-probe) =="
# The invariants build cross-checks the engine's next-event cycle, taken
# from the hint cache's minimum issue bound, against the linear scan: first
# on its trigger and clean-run tests, then on live simulations (an
# over-estimate would let an idle skip jump a real event). It also re-walks
# every load the CPU's closed replay gate would charge without probing, and
# every pending load when the gate visits a woken load alone, and re-probes
# the store its closed store gate would charge; the trigger tests prove
# that a cache answer changing behind a still version panics, for loads
# with and without a woken load and for a gated store.
go test -count=1 -tags invariants -run 'TestEngineShadow' ./internal/memctrl/
go test -count=1 -tags invariants -run 'TestReplayGate|TestStoreGate' ./internal/cpu/
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

echo "== root benchmark (BenchmarkSimThroughput, one iteration per case) =="
# The simcycles/s the North star names; one iteration each shows the
# benchmark still builds and runs.
go test -run '^$' -bench SimThroughput -benchtime 1x .

echo "== benchmark module tests =="
(cd bench && go test ./...)

echo "== benchmark correctness smoke (apsi-sparse; fails on any Result-digest mismatch) =="
bash bench/run.sh -workload apsi-sparse -seconds 2 >/dev/null

echo "== benchmark correctness smoke (fig10-grid: every Table 4 mechanism's digests, Figure 10 rows) =="
# apsi-sparse runs Burst_TH alone; fig10-grid checks 40 Results (5
# profiles x the 8 Table 4 mechanisms) against committed digests and the
# Figure 10 rows against experiments_output.txt.
bash bench/run.sh -workload fig10-grid -seconds 1 >/dev/null

echo "== benchmark correctness smoke (held-out seed 7: mcf-chase and swim-stream digests) =="
# The runs above check the committed digests at seed 0 only; seed 7 is
# the held-out one. An L2 whose hits move a line only to second place in
# its set's recency order fails both, while memsim on mcf at 30k+30k
# prints the same numbers.
bash bench/run.sh -workload mcf-chase -seed 7 -seconds 1 >/dev/null
bash bench/run.sh -workload swim-stream -seed 7 -seconds 1 >/dev/null

echo "== load-bearing check (experiments -exp all, byte-identical to experiments_output.txt) =="
# Every paper table and figure at 200k+200k instructions; any change to a
# printed number fails here. TestGoldenSmallSlice and the fig10-grid smoke
# cover a 30k slice and the Figure 10 rows only.
go run ./cmd/experiments -exp all -n 200000 -warmup 200000 >"$tracetmp/experiments_output.txt"
diff experiments_output.txt "$tracetmp/experiments_output.txt"

echo "CI OK"
