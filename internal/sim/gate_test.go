package sim

import (
	"fmt"
	"reflect"
	"testing"

	"burstmem/internal/cache"
	"burstmem/internal/cpu"
	"burstmem/internal/workload"
)

// walkPort forwards only the cpu.Mem methods of an L1D. A CPU over it finds
// no refusal-gate port, so neither of its gates closes: replay walks every
// pending load and drainStores probes its first unissued store on every
// cycle.
type walkPort struct{ l1 *cache.Cache }

func (p walkPort) Access(addr uint64, isWrite bool, done func()) cache.Result {
	return p.l1.Access(addr, isWrite, done)
}

func (p walkPort) AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result {
	return p.l1.AccessLoad(addr, mayAllocate, done)
}

// TestReplayGateMatchesWalk: the replay and store gates (bulk refusal
// charges, woken loads visited alone, idle CPU cycles collapsed or skipped
// with their charges applied by SkipCycles) must give every Result field
// that probing every cycle gives. parser and mcf chase pointers, so
// completions wake loads; lucas is refused the most. LSQ 2 keeps the LSQ
// full; a zero-latency L1D completes hits inside the probe, so one woken
// load can wake the next. The write-saturated cases run lucas and swim,
// whose writebacks fill the write queue until the store buffer fills,
// under an in-order, a write-preempting and the threshold mechanism, with
// a small and the default store buffer.
func TestReplayGateMatchesWalk(t *testing.T) {
	type gateCase struct {
		name                string
		bench, mech         string
		lsq, latency, sbLen int
		writeSaturated      bool
	}
	var cases []gateCase
	for _, bench := range []string{"parser", "mcf", "lucas"} {
		for _, lsq := range []int{2, 32} {
			for _, latency := range []int{0, 3} {
				name := fmt.Sprintf("%s/lsq%d/l1lat%d", bench, lsq, latency)
				cases = append(cases, gateCase{name, bench, "Burst_TH", lsq, latency, 32, false})
			}
		}
	}
	for _, bench := range []string{"lucas", "swim"} {
		for _, mech := range []string{"BkInOrder", "Burst_WP", "Burst_TH"} {
			for _, sbLen := range []int{4, 32} {
				name := fmt.Sprintf("%s/%s/sb%d", bench, mech, sbLen)
				cases = append(cases, gateCase{name, bench, mech, 32, 3, sbLen, true})
			}
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig()
			cfg.CPU.LSQSize = tc.lsq
			cfg.CPU.StoreBufSize = tc.sbLen
			cfg.L1D.LatencyCycles = tc.latency
			gated := runReplay(t, cfg, tc.bench, tc.mech, false)
			walked := runReplay(t, cfg, tc.bench, tc.mech, true)
			if !reflect.DeepEqual(gated, walked) {
				t.Errorf("gated replay and stores diverged from probing every cycle:\n  gated: %+v\n walked: %+v", gated, walked)
			}
			if tc.writeSaturated && walked.CPUStats.StoreBufFullStalls == 0 {
				t.Errorf("the store buffer never filled: not a write-saturated case")
			}
		})
	}
}

// runReplay runs bench under mech; with walk set, the CPU is rebuilt
// before the run over a walkPort of its L1D.
func runReplay(t *testing.T, cfg Config, bench, mech string, walk bool) Result {
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
	if walk {
		gen, err := workload.New(prof)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cpu.New(cfg.CPU, gen, walkPort{sys.L1D})
		if err != nil {
			t.Fatal(err)
		}
		sys.CPU, sys.CPUs[0] = c, c
	}
	res, err := runSystem(cfg, sys, bench)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
