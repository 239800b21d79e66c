package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"burstmem/internal/trace"
	"burstmem/internal/workload"
)

// concurrentCopies is how many identical simulations
// TestParallelEquivalence runs at once against the reference run.
const concurrentCopies = 2

// diffConfig is the differential-suite machine: small enough that the full
// mechanism x workload matrix stays fast, large enough that every
// mechanism schedules real bursts, preemptions, forwards and refreshes
// inside the window.
func diffConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 3_000
	cfg.Instructions = 10_000
	return cfg
}

// tracedRun is one full warmup+measurement simulation with a tracer and
// interval metrics attached.
type tracedRun struct {
	res Result
	tr  *trace.Tracer
	err error
}

// runTraced runs one traced simulation. It reports failure in the returned
// error rather than through a *testing.T, so it can run on any goroutine.
func runTraced(cfg Config, bench, mech string) tracedRun {
	prof, err := workload.ByName(bench)
	if err != nil {
		return tracedRun{err: err}
	}
	factory, err := MechanismByName(mech)
	if err != nil {
		return tracedRun{err: err}
	}
	sys, err := NewSystem(cfg, prof, factory)
	if err != nil {
		return tracedRun{err: err}
	}
	tr := trace.New(1<<19, 256)
	sys.AttachTracer(tr)
	res, err := runSystem(cfg, sys, bench)
	return tracedRun{res: res, tr: tr, err: err}
}

// requireIdentical asserts two runs are byte-identical: the full Result
// (stats, histograms, power, substructure counters), the complete trace
// event stream, and the interval metrics time series.
func requireIdentical(t *testing.T, label string, ref, got tracedRun) {
	t.Helper()
	if !reflect.DeepEqual(ref.res, got.res) {
		t.Errorf("%s: Result diverged from the reference:\nreference: %+v\nconcurrent: %+v", label, ref.res, got.res)
	}
	re, ge := ref.tr.Events(), got.tr.Events()
	if len(re) != len(ge) {
		t.Fatalf("%s: event counts differ: reference %d vs concurrent %d", label, len(re), len(ge))
	}
	for i := range re {
		if re[i] != ge[i] {
			t.Fatalf("%s: event %d differs:\nreference  %+v\nconcurrent %+v", label, i, re[i], ge[i])
		}
	}
	for k := trace.Kind(0); k < trace.EvSchedPick+1; k++ {
		if ref.tr.Count(k) != got.tr.Count(k) {
			t.Errorf("%s: lifetime count of %v differs: reference %d vs concurrent %d",
				label, k, ref.tr.Count(k), got.tr.Count(k))
		}
	}
	ri, gi := ref.tr.Intervals(), got.tr.Intervals()
	if len(ri) != len(gi) {
		t.Fatalf("%s: interval counts differ: reference %d vs concurrent %d", label, len(ri), len(gi))
	}
	for i := range ri {
		if ri[i] != gi[i] {
			t.Fatalf("%s: interval %d differs:\nreference  %+v\nconcurrent %+v", label, i, ri[i], gi[i])
		}
	}
}

// TestParallelEquivalence pins the contract the grid pools of
// cmd/experiments and cmd/sweep rely on: a simulation is a pure function of
// its inputs, so runs on concurrent goroutines produce output
// byte-identical to a run on its own — the full Result (latency histograms
// included), the complete trace event stream, and the interval metrics —
// for every one of the eleven mechanisms on SPEC trace workloads. Mutable
// state shared between Systems fails here, or under -race.
func TestParallelEquivalence(t *testing.T) {
	workloads := []string{"swim", "mcf"}
	if testing.Short() {
		workloads = workloads[:1]
	}
	for _, bench := range workloads {
		for _, mech := range conservationMechanisms() {
			t.Run(bench+"/"+mech, func(t *testing.T) {
				cfg := diffConfig()
				ref := runTraced(cfg, bench, mech)
				if ref.err != nil {
					t.Fatal(ref.err)
				}
				runs := make([]tracedRun, concurrentCopies)
				var wg sync.WaitGroup
				for i := range runs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						runs[i] = runTraced(cfg, bench, mech)
					}(i)
				}
				wg.Wait()
				for i, got := range runs {
					if got.err != nil {
						t.Fatal(got.err)
					}
					requireIdentical(t, fmt.Sprintf("%s/copy%d", mech, i), ref, got)
				}
			})
		}
	}
}
