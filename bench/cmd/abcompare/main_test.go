package main

import (
	"testing"

	"burstmem/bench"
)

// TestPairUpKeepsFailedPairs: a pair in which either run failed its
// correctness check counts as run, its failures are counted per side, and
// its values stay out of the samples.
func TestPairUpKeepsFailedPairs(t *testing.T) {
	res := func(correct bool, v float64) bench.Result {
		return bench.Result{Correct: correct, Metrics: map[string]bench.Metric{"wall_s": {Value: v, Unit: "s"}}}
	}
	base := map[int]bench.Result{1: res(true, 1), 2: res(true, 2), 3: res(false, 3), 4: res(true, 4)}
	head := map[int]bench.Result{1: res(true, 1.5), 2: res(false, 2.5), 3: res(true, 3.5)}
	p := pairUp(base, head, "wall_s")
	if p.runs != 3 || p.baseFailed != 1 || p.headFailed != 1 ||
		len(p.base) != 1 || p.base[0] != 1 || p.head[0] != 1.5 {
		t.Errorf("pairUp = %+v, want 3 runs, one failed on each side, only pair 1 sampled", p)
	}
}

// TestVerdictRule checks each branch of the verdict rule on synthetic
// paired samples of a metric with a 10% bound.
func TestVerdictRule(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{70, 130, 85, 115, 100, 60, 140, 90, 110, 100}
	all := func(base, head []float64) paired { return paired{base: base, head: head, runs: len(base)} }
	for _, tc := range []struct {
		name         string
		p            paired
		higherBetter bool
		want         string
		wantWon      float64
	}{
		{"same code", all(base, []float64{101, 100, 100, 99, 101, 99, 101, 100, 100, 99}), false, "unchanged", 0.5},
		{"ties count for neither", all(base, base), false, "unchanged", 0},
		{"20% faster", all(base, scaled(base, 0.8)), false, "improved", 1},
		{"20% slower", all(base, scaled(base, 1.2)), false, "regressed", 0},
		{"5% slower, inside the bound", all(base, scaled(base, 1.05)), false, "unchanged", 0},
		{"throughput up 20%", all(base, scaled(base, 1.2)), true, "improved", 1},
		{"spread wider than the bound", all(wide, scaled(wide, 1.02)), false, "unresolved", 0},
		{"spread wider than the bound, 1.5x slower", all(wide, scaled(wide, 1.5)), false, "regressed", 0},
		{"wide, but every head run beats every base run", all(wide, scaled(base, 0.5)), false, "improved", 1},
		{"faster in 8 of 10 pairs only", all(base,
			[]float64{80, 81, 79, 80, 82, 78, 80, 81, 120, 120}), false, "unchanged", 0.8},
		{"failed pairs count as run, not won",
			paired{base: base[:9], head: scaled(base[:9], 0.8), runs: 11, baseFailed: 1, headFailed: 1},
			false, "unchanged", 9.0 / 11},
		{"head failed more runs than base",
			paired{base: base[:9], head: scaled(base[:9], 0.8), runs: 10, headFailed: 1},
			false, "regressed", 0.9},
	} {
		c := compare(tc.p, tc.higherBetter, 0.10)
		if c.verdict != tc.want || c.won != tc.wantWon {
			t.Errorf("%s: verdict %q won %v, want %q won %v", tc.name, c.verdict, c.won, tc.want, tc.wantWon)
		}
	}
}
