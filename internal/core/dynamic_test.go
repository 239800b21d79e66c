package core

import (
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
	"burstmem/internal/mctest"
	"burstmem/internal/memctrl"
	"burstmem/internal/xrand"
)

func dynMech(t *testing.T, r *mctest.Runner) *burstSched {
	t.Helper()
	m, ok := r.Ctrl.Mechanism(0).(*burstSched)
	if !ok {
		t.Fatalf("mechanism is %T", r.Ctrl.Mechanism(0))
	}
	return m
}

// feed drives a runner with a read/write mix at the given write share for
// n submissions.
func feed(t *testing.T, r *mctest.Runner, writeShare float64, n int, seed uint64) {
	t.Helper()
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		r.Step(4)
		kind := memctrl.KindRead
		if rng.Bool(writeShare) {
			kind = memctrl.KindWrite
		}
		if !r.Ctrl.CanAccept(kind) {
			continue
		}
		loc := addrmap.Loc{
			Bank: uint8(rng.Intn(4)),
			Row:  uint32(rng.Intn(16)),
			Col:  uint32(rng.Intn(32)),
		}
		if _, err := r.SubmitLoc(kind, loc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDynamicThresholdAdapts: a write-heavy phase lowers the threshold, a
// read-heavy phase raises it back.
func TestDynamicThresholdAdapts(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	cfg.MaxWrites = 32
	r, err := mctest.NewRunner(cfg, BurstDynTH())
	if err != nil {
		t.Fatal(err)
	}
	m := dynMech(t, r)
	start := m.opt.Threshold
	if start != cfg.MaxWrites/2 {
		t.Fatalf("initial threshold %d, want %d", start, cfg.MaxWrites/2)
	}

	// Write-heavy phase: threshold must drop below the start value.
	feed(t, r, 0.7, 800, 1)
	if _, err := r.RunUntilDrained(1_000_000); err != nil {
		t.Fatal(err)
	}
	low := m.opt.Threshold
	if low >= start {
		t.Fatalf("threshold %d did not drop under write-heavy traffic (start %d)", low, start)
	}

	// Read-heavy phase: threshold must rise again.
	feed(t, r, 0.02, 800, 2)
	if _, err := r.RunUntilDrained(1_000_000); err != nil {
		t.Fatal(err)
	}
	high := m.opt.Threshold
	if high <= low {
		t.Fatalf("threshold %d did not rise under read-heavy traffic (low was %d)", high, low)
	}
}

// TestDynamicThresholdBounds: the adapted threshold stays within
// [minDynamicThreshold, MaxWrites] under extreme mixes.
func TestDynamicThresholdBounds(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	cfg.MaxWrites = 16
	for _, writeShare := range []float64{0, 1} {
		r, err := mctest.NewRunner(cfg, BurstDynTH())
		if err != nil {
			t.Fatal(err)
		}
		m := dynMech(t, r)
		feed(t, r, writeShare, 600, 3)
		if _, err := r.RunUntilDrained(1_000_000); err != nil {
			t.Fatal(err)
		}
		th := m.opt.Threshold
		if th < minDynamicThreshold || th > cfg.MaxWrites {
			t.Fatalf("writeShare %v: threshold %d out of [%d, %d]",
				writeShare, th, minDynamicThreshold, cfg.MaxWrites)
		}
	}
}

// TestDynamicIdleIntervalKeepsThreshold: with no arrivals, the threshold
// stays put instead of decaying on empty statistics.
func TestDynamicIdleIntervalKeepsThreshold(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	r, err := mctest.NewRunner(cfg, BurstDynTH())
	if err != nil {
		t.Fatal(err)
	}
	m := dynMech(t, r)
	feed(t, r, 0.6, 400, 4)
	if _, err := r.RunUntilDrained(1_000_000); err != nil {
		t.Fatal(err)
	}
	adapted := m.opt.Threshold
	r.Step(3 * AdaptInterval) // idle
	if got := m.opt.Threshold; got != adapted {
		t.Fatalf("idle interval changed threshold %d -> %d", adapted, got)
	}
}
