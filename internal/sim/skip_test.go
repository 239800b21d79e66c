package sim

import (
	"reflect"
	"testing"

	"burstmem/internal/memctrl"
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
// A case with a mapping or the close-page policy carries it in its name.
func TestFastForwardBitIdentical(t *testing.T) {
	cases := []struct {
		bench   string
		mech    string
		cores   int
		mapping string // "" keeps page interleaving
		policy  memctrl.RowPolicy
	}{
		// mcf is latency-bound (pointer chasing): long all-stalled
		// stretches make skips frequent, the strongest stress on the
		// eligibility classifiers.
		{bench: "mcf", mech: "BkInOrder", cores: 1},
		{bench: "mcf", mech: "Burst_TH", cores: 1},
		{bench: "swim", mech: "RowHit", cores: 1},
		{bench: "swim", mech: "Intel_RP", cores: 1},
		{bench: "swim", mech: "Burst_RP", cores: 1},
		{bench: "gcc", mech: "Burst_DYN", cores: 1},
		// gzip once exposed a boundary bug: a skip straddling the
		// warmup-crossing cycle moved stall cycles out of the window.
		{bench: "gzip", mech: "Burst_TH", cores: 1},
		{bench: "gzip", mech: "Burst_DYN", cores: 1},
		{bench: "mcf", mech: "Burst_TH", cores: 2}, // CMP: every core's classifier must agree
		// lucas saturates the write queue: the store buffer fills, and
		// CPU cycles that only charge the gates' refusals are skipped.
		{bench: "lucas", mech: "BkInOrder", cores: 1},
		{bench: "lucas", mech: "Burst_TH", cores: 1},
		{bench: "lucas", mech: "Burst_TH", cores: 2},
		// Other mappings spread a profile's rows over banks and channels
		// differently, and close page issues every column with
		// auto-precharge: the channels' next-event bounds and the bank
		// arbiters then see other row and timing states.
		{bench: "swim", mech: "Burst_TH", cores: 1, mapping: "line-interleave"},
		{bench: "swim", mech: "Burst_TH", cores: 1, mapping: "bit-reversal"},
		{bench: "mcf", mech: "Burst_TH", cores: 1, mapping: "permutation"},
		{bench: "mcf", mech: "BkInOrder", cores: 1, mapping: "bit-reversal"},
		{bench: "lucas", mech: "Burst_WP", cores: 1, policy: memctrl.ClosePageAuto},
		{bench: "mcf", mech: "Burst_TH", cores: 1, policy: memctrl.ClosePageAuto},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.bench + "/" + tc.mech
		if tc.cores > 1 {
			name += "/cmp"
		}
		if tc.mapping != "" {
			name += "/" + tc.mapping
		}
		if tc.policy == memctrl.ClosePageAuto {
			name += "/close-page"
		}
		t.Run(name, func(t *testing.T) {
			cfg := quickConfig()
			cfg.Cores = tc.cores
			if tc.mapping != "" {
				cfg.Mem.Mapping = tc.mapping
			}
			cfg.Mem.RowPolicy = tc.policy
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

// TestCycleCensus: every memory cycle is counted once, as stepped,
// collapsed or skipped, and with skipping off every one is stepped.
// lucas under BkInOrder is write-saturated, so all three kinds occur.
func TestCycleCensus(t *testing.T) {
	prof, err := workload.ByName("lucas")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := MechanismByName("BkInOrder")
	if err != nil {
		t.Fatal(err)
	}
	for _, disableSkip := range []bool{false, true} {
		cfg := quickConfig()
		sys, err := NewSystem(cfg, prof, factory)
		if err != nil {
			t.Fatal(err)
		}
		sys.DisableSkip = disableSkip
		if _, err := runSystem(cfg, sys, "lucas"); err != nil {
			t.Fatal(err)
		}
		cc := sys.Census()
		if sum := cc.Stepped + cc.Collapsed + cc.Skipped; sum != sys.MemCycle() {
			t.Errorf("DisableSkip %v: census %+v sums to %d, want MemCycle %d", disableSkip, cc, sum, sys.MemCycle())
		}
		if disableSkip && cc.Stepped != sys.MemCycle() {
			t.Errorf("DisableSkip: census %+v, want every cycle stepped", cc)
		}
		if !disableSkip && (cc.Stepped == 0 || cc.Collapsed == 0 || cc.Skipped == 0) {
			t.Errorf("census %+v: want stepped, collapsed and skipped cycles", cc)
		}
	}
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
