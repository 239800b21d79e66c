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
// no refusal-gate port, so its gate never closes and replay walks every
// pending load on every cycle.
type walkPort struct{ l1 *cache.Cache }

func (p walkPort) Access(addr uint64, isWrite bool, done func()) cache.Result {
	return p.l1.Access(addr, isWrite, done)
}

func (p walkPort) AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result {
	return p.l1.AccessLoad(addr, mayAllocate, done)
}

// TestReplayGateMatchesWalk: the replay gate (bulk refusal charges, woken
// loads visited alone) must give every Result field a walk on every cycle
// gives. parser and mcf chase pointers, so completions wake loads; lucas is
// refused the most. LSQ 2 keeps the LSQ full; a zero-latency L1D completes
// hits inside the probe, so one woken load can wake the next.
func TestReplayGateMatchesWalk(t *testing.T) {
	for _, bench := range []string{"parser", "mcf", "lucas"} {
		for _, lsq := range []int{2, 32} {
			for _, latency := range []int{0, 3} {
				bench, lsq, latency := bench, lsq, latency
				t.Run(fmt.Sprintf("%s/lsq%d/l1lat%d", bench, lsq, latency), func(t *testing.T) {
					cfg := quickConfig()
					cfg.CPU.LSQSize = lsq
					cfg.L1D.LatencyCycles = latency
					gated := runReplay(t, cfg, bench, false)
					walked := runReplay(t, cfg, bench, true)
					if !reflect.DeepEqual(gated, walked) {
						t.Errorf("gated replay diverged from a walk every cycle:\n  gated: %+v\n walked: %+v", gated, walked)
					}
				})
			}
		}
	}
}

// runReplay runs bench under Burst_TH; with walk set, the CPU is rebuilt
// before the run over a walkPort of its L1D.
func runReplay(t *testing.T, cfg Config, bench string, walk bool) Result {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := MechanismByName("Burst_TH")
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
