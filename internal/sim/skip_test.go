package sim

import (
	"reflect"
	"testing"

	"burstmem/internal/workload"
)

// runWith drives a fresh system through the real runSystem protocol, with
// cycle skipping on or off.
func runWith(t *testing.T, cfg Config, bench, mech string, disableSkip bool) Result {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := MechanismByName(mech)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, prof, factory)
	if err != nil {
		t.Fatal(err)
	}
	sys.DisableSkip = disableSkip
	res, err := runSystem(cfg, sys, bench)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFastForwardBitIdentical: event-driven cycle skipping must not change
// ANY measurement. Every skipped cycle is one where no state transition can
// occur, so the skipped run and the cycle-by-cycle run are the same
// simulation; the full Result (latency histograms, stall counters,
// occupancy distributions, power, everything) must match exactly.
func TestFastForwardBitIdentical(t *testing.T) {
	cases := []struct {
		bench string
		mech  string
		cores int
	}{
		// mcf is latency-bound (pointer chasing): long all-stalled
		// stretches make skips frequent, the strongest stress on the
		// eligibility classifiers.
		{"mcf", "BkInOrder", 0},
		{"mcf", "Burst_TH", 0},
		{"swim", "RowHit", 0},
		{"swim", "Intel_RP", 0},
		{"swim", "Burst_RP", 0},
		{"gcc", "Burst_DYN", 0},
		// gzip once exposed a boundary bug: a skip straddling the
		// warmup-crossing cycle moved stall cycles out of the window.
		{"gzip", "Burst_TH", 0},
		{"gzip", "Burst_DYN", 0},
		{"mcf", "Burst_TH", 2}, // CMP: every core's classifier must agree
	}
	for _, tc := range cases {
		tc := tc
		name := tc.bench + "/" + tc.mech
		if tc.cores > 1 {
			name += "/cmp"
		}
		t.Run(name, func(t *testing.T) {
			cfg := quickConfig()
			cfg.Cores = tc.cores
			stepped := runWith(t, cfg, tc.bench, tc.mech, true)
			skipped := runWith(t, cfg, tc.bench, tc.mech, false)
			if !reflect.DeepEqual(stepped, skipped) {
				t.Errorf("FastForward diverged from StepMemCycle:\n stepped: %+v\n skipped: %+v",
					stepped, skipped)
			}
		})
	}
}

// TestFastForwardActuallySkips: on a latency-bound benchmark the skip path
// must fire — otherwise TestFastForwardBitIdentical is vacuous.
func TestFastForwardActuallySkips(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	factory, _ := MechanismByName("Burst_TH")
	cfg := quickConfig()
	sys, err := NewSystem(cfg, prof, factory)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for sys.MinRetired() < cfg.Instructions {
		sys.FastForward()
		steps++
	}
	if uint64(steps) >= sys.MemCycle() {
		t.Fatalf("no cycles skipped: %d steps for %d memory cycles", steps, sys.MemCycle())
	}
	t.Logf("stepped %d of %d memory cycles (%.1f%% skipped)",
		steps, sys.MemCycle(), 100*(1-float64(steps)/float64(sys.MemCycle())))
}

// TestRunDeterministic: repeated identical runs must produce bit-identical
// Results across every mechanism family — the reproducibility contract all
// paper-figure experiments rely on.
func TestRunDeterministic(t *testing.T) {
	for _, mech := range []string{"BkInOrder", "RowHit", "Intel_RP", "Burst_TH"} {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			a := runQuick(t, "swim", mech)
			b := runQuick(t, "swim", mech)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two identical runs differ:\n first: %+v\nsecond: %+v", a, b)
			}
		})
	}
}
