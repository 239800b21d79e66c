package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/memctrl"
	"burstmem/internal/trace"
	"burstmem/internal/workload"
	"burstmem/internal/xrand"
)

// The two steady-state tests below are the allocation contract of the
// simulation loop: after warmup, nothing a simulated cycle runs may
// allocate. testing.AllocsPerRun averages over its 10 measured sets and
// rounds down, so bounded refills still pass: over the 22,000 cycles it
// steps after warmup, the burst mechanisms' group pool and per-bank burst
// slices allocate at most 4 times (Burst_WP, open page). A per-cycle
// allocation makes at least one per set, and fails.

// allocHint names the commands that find the allocating line: a heap
// profile of this leg alone with every allocation sampled, then the
// functions that allocated the most objects.
func allocHint(t *testing.T) string {
	run := "^" + strings.ReplaceAll(t.Name(), "/", "$/^") + "$"
	return fmt.Sprintf("find the line with\n\tgo test -run '%s' -memprofile mem.out -memprofilerate 1 ./internal/sim/\n\tgo tool pprof -sample_index=alloc_objects -top mem.out", run)
}

// TestSchedulerSteadyStateAllocs asserts that the controller + mechanism
// hot path — Submit, bank arbitration, transaction scheduling, completion
// — performs zero heap allocations once warm. The access pool, intrusive
// per-bank lists and reused class masks exist precisely for this;
// a regression here silently costs ~1M allocs/s of simulation throughput.
// It runs every mechanism under both row policies: the open-page legs
// carry the mechanism's name, the close-page legs run under
// close-page-auto, the only path through the channel's auto-precharge.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	mechs := append(conservationMechanisms(), "Burst_Naive")
	for _, mech := range mechs {
		t.Run(mech, func(t *testing.T) { schedulerSteadyState(t, mech, memctrl.OpenPage) })
	}
	t.Run("close-page-auto", func(t *testing.T) {
		for _, mech := range mechs {
			t.Run(mech, func(t *testing.T) { schedulerSteadyState(t, mech, memctrl.ClosePageAuto) })
		}
	})
}

func schedulerSteadyState(t *testing.T, mech string, policy memctrl.RowPolicy) {
	factory, err := MechanismByName(mech)
	if err != nil {
		t.Fatal(err)
	}
	cfg := memctrl.DefaultConfig()
	cfg.Geometry = addrmap.Geometry{
		Channels: 1, Ranks: 2, Banks: 8, Rows: 64, ColumnLines: 32, LineBytes: 64,
	}
	cfg.RowPolicy = policy
	ctrl, err := memctrl.New(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	cyc := uint64(0)
	ctrl.Tick(cyc)
	// Closed-loop traffic over a bounded footprint so every map, slice and
	// pool reaches its steady-state capacity during warmup. OnComplete is
	// nil: callback plumbing is the memory hierarchy's concern, not the
	// scheduler path under test.
	step := func(n int) {
		for i := 0; i < n; i++ {
			cyc++
			ctrl.Tick(cyc)
			if rng.Intn(2) == 0 {
				kind := memctrl.KindRead
				if rng.Intn(4) == 0 {
					kind = memctrl.KindWrite
				}
				if ctrl.CanAccept(kind) {
					addr := uint64(rng.Intn(1 << 14))
					ctrl.Submit(kind, addr*64, nil)
				}
			}
		}
	}
	step(50000) // warmup: grow pools, heaps, scratch to high-water marks
	allocs := testing.AllocsPerRun(10, func() { step(2000) })
	if allocs != 0 {
		t.Fatalf("%s steady-state scheduler path allocates: %.1f allocs per 2000 cycles; %s", mech, allocs, allocHint(t))
	}
}

// TestSystemSteadyStateAllocs pins the full machine — CPU front end, L1D,
// L2, FSB, controller, mechanism and skip engine — at zero steady-state
// heap allocations. Every pool, ring and heap is prewarmed to its
// admission-bounded high-water mark at construction, so after a short
// warm run nothing on the simulation loop allocates. swim exercises the
// streaming/MLP path, mcf the pointer-chase path whose row spread stresses
// the burst-group pool; swim-traced runs with a tracer attached (intervals
// off), and gcc-2cores shares one controller between two cores.
func TestSystemSteadyStateAllocs(t *testing.T) {
	for _, leg := range []struct {
		name, bench string
		cores       int
		traced      bool
	}{
		{"swim", "swim", 1, false},
		{"mcf", "mcf", 1, false},
		{"swim-traced", "swim", 1, true},
		{"gcc-2cores", "gcc", 2, false},
	} {
		t.Run(leg.name, func(t *testing.T) {
			prof, err := workload.ByName(leg.bench)
			if err != nil {
				t.Fatal(err)
			}
			factory, err := MechanismByName("Burst_TH")
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Cores = leg.cores
			cfg.WarmupInstructions = 10_000
			cfg.Instructions = 10_000
			sys, err := NewSystem(cfg, prof, factory)
			if err != nil {
				t.Fatal(err)
			}
			if leg.traced {
				sys.AttachTracer(trace.New(1<<12, 0))
			}
			for sys.MinRetired() < cfg.WarmupInstructions {
				sys.FastForward()
			}
			allocs := testing.AllocsPerRun(10, func() {
				for i := 0; i < 2000; i++ {
					sys.FastForward()
				}
			})
			if allocs != 0 {
				t.Fatalf("%s steady-state simulation loop allocates: %.1f allocs per 2000 steps; %s", leg.name, allocs, allocHint(t))
			}
		})
	}
}

// TestNewSystemFootprint bounds what one build of the Table 3 machine
// allocates. Every simulation builds its own system (40 per fig10-grid
// rep, 288 per `experiments -exp all`), and the 2 MB, 16-way L2 is most of
// it: a tag word and a recency-order byte per way, 288 KiB in all.
func TestNewSystemFootprint(t *testing.T) {
	const limit = 512 << 10
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := MechanismByName("Burst_TH")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = NewSystem(cfg, prof, factory)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewSystem allocated %d bytes", got)
	if got > limit {
		t.Fatalf("NewSystem allocated %d bytes, want at most %d", got, limit)
	}
}
