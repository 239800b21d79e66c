#!/usr/bin/env bash
# Same-host A/B comparison of two revisions on the benchmark.
#
#   bench/ab.sh [base-rev [head-rev]]
#
# base-rev defaults to the merge-base of HEAD and main, head-rev to HEAD.
# Both revisions are exported with git archive (no worktree metadata to
# clean up) under .bench_build/ab/, and HEAD's bench/ and BENCHMARK.json
# are copied into both exports, so both sides run identical benchmark code
# against their own simulator. For every workload it then runs 10 pairs
# with seeds 1..10 at BENCHMARK.json's run_seconds, alternating which side
# goes first, and hands both sides' result lines to cmd/abcompare for
# per-metric verdicts. Exits 1 when any metric regressed.
set -euo pipefail
pairs=10
workloads="swim-stream mcf-chase apsi-sparse fig10-grid"

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse "${1:-$(git -C "$root" merge-base HEAD main)}")
head=$(git -C "$root" rev-parse "${2:-HEAD}")
build="$root/.bench_build"
out="$build/ab"
rm -rf "$out"
mkdir -p "$out/base" "$out/head" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

git -C "$root" archive "$base" | tar -x -C "$out/base"
git -C "$root" archive "$head" | tar -x -C "$out/head"
rm -rf "$out/base/bench"
cp -R "$out/head/bench" "$out/base/bench"
cp "$out/head/BENCHMARK.json" "$out/base/BENCHMARK.json"
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' "$out/head/BENCHMARK.json")
if [[ -z $seconds ]]; then
    echo "ab.sh: no run_seconds in BENCHMARK.json" >&2
    exit 2
fi
for side in base head; do
    (cd "$out/$side/bench" && go build -buildvcs=false -o "$out/$side/burstbench" ./cmd/burstbench)
done
(cd "$out/head/bench" && go build -buildvcs=false -o "$out/abcompare" ./cmd/abcompare)

echo "base $base"
echo "head $head"
for w in $workloads; do
    for ((i = 1; i <= pairs; i++)); do
        order="base head"
        if ((i % 2 == 0)); then
            order="head base"
        fi
        for side in $order; do
            # A run that fails its correctness check exits 1 but still
            # prints its result line; abcompare counts it as failed.
            result=$(cd "$out/$side" && ./burstbench -workload "$w" -seed "$i" -seconds "$seconds" | tail -n 1) || true
            if [[ $result != "{"* ]]; then
                echo "ab.sh: $side $w pair $i printed no result" >&2
                exit 2
            fi
            printf '{"workload":"%s","pair":%d,"result":%s}\n' "$w" "$i" "$result" >>"$out/$side.jsonl"
            echo "$side $w pair $i done" >&2
        done
    done
done
"$out/abcompare" -spec "$out/head/BENCHMARK.json" "$out/base.jsonl" "$out/head.jsonl"
