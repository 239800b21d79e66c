package sim

import (
	"strings"
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
	"burstmem/internal/mctest"
	"burstmem/internal/memctrl"
	"burstmem/internal/trace"
	"burstmem/internal/workload"
	"burstmem/internal/xrand"
)

// conservationMechanisms is every Table 4 mechanism plus the serial
// reference: the conservation laws are mechanism-independent, so all of
// them must satisfy the same oracle on the same workload.
func conservationMechanisms() []string {
	return append(MechanismNames(), "InOrder", "Burst_DYN", "Burst_SZ")
}

// TestAccessConservation drives every mechanism over one shared
// deterministic request stream on a multi-channel controller with a tracer
// attached, then validates the trace stream with the mctest oracle: every
// enqueued access completes exactly once, completion timestamps are
// monotone, reconstructed pool/write-queue occupancy stays within
// capacity, and controller totals agree with per-channel device counts.
// Every burst scheduling run must also have reached the tracer through its
// Host: it records scheduler picks and burst formations.
// Subtests are named <mech>/workers0: the serial controller, which is the
// only engine, under the name its leg had when a sharded one ran beside it.
func TestAccessConservation(t *testing.T) {
	for _, mech := range conservationMechanisms() {
		t.Run(mech+"/workers0", func(t *testing.T) {
			factory, err := MechanismByName(mech)
			if err != nil {
				t.Fatal(err)
			}
			cfg := memctrl.DefaultConfig()
			cfg.Geometry = addrmap.Geometry{
				Channels: 2, Ranks: 2, Banks: 4, Rows: 64, ColumnLines: 32, LineBytes: 64,
			}
			cfg.PoolSize = 48
			cfg.MaxWrites = 12
			ctrl, err := memctrl.New(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New(1<<18, 0)
			ctrl.SetTracer(tr)

			// Closed loop: submit a skewed read/write mix over a small
			// footprint (heavy row reuse exercises bursts, forwarding and
			// piggybacking; pool pressure exercises forced writes and
			// preemption), respecting back-pressure.
			rng := xrand.New(7)
			cyc := uint64(0)
			ctrl.Tick(cyc)
			submitted := 0
			for submitted < 4000 {
				cyc++
				ctrl.Tick(cyc)
				for b := rng.Intn(3); b > 0; b-- {
					kind := memctrl.KindRead
					if rng.Intn(3) == 0 {
						kind = memctrl.KindWrite
					}
					if !ctrl.CanAccept(kind) {
						continue
					}
					addr := uint64(rng.Intn(1<<13)) * 64
					if _, ok := ctrl.Submit(kind, addr, nil); ok {
						submitted++
					}
				}
			}
			for i := 0; !ctrl.Drained(); i++ {
				if i > 200_000 {
					t.Fatalf("%s: controller not drained after 200k cycles", mech)
				}
				cyc++
				ctrl.Tick(cyc)
			}
			if err := mctest.CheckConservation(tr, ctrl); err != nil {
				t.Fatal(err)
			}
			if tr.Count(trace.EvEnqueue) != uint64(submitted) {
				t.Fatalf("%s: %d submitted but %d enqueue events",
					mech, submitted, tr.Count(trace.EvEnqueue))
			}
			if strings.HasPrefix(mech, "Burst") {
				for _, k := range []trace.Kind{trace.EvSchedPick, trace.EvBurstForm} {
					if tr.Count(k) == 0 {
						t.Fatalf("%s: no %v events reached the tracer", mech, k)
					}
				}
			}
		})
	}
}

// TestConservationCatchesViolations guards the oracle itself: a stream
// with a duplicated completion (or a lost access) must be rejected, so a
// green conservation run means the laws were actually checked.
func TestConservationCatchesViolations(t *testing.T) {
	cfg := mctest.SmallConfig(dram.DDR2_800())
	// A complete, valid run first.
	r, err := mctest.NewRunner(cfg, MechanismNamesFactoryForTest(t, "Burst_TH"))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1<<12, 0)
	r.Ctrl.SetTracer(tr)
	for i := 0; i < 20; i++ {
		if _, err := r.Submit(memctrl.KindRead, uint64(i)*64); err != nil {
			t.Fatal(err)
		}
		r.Step(2)
	}
	if _, err := r.RunUntilDrained(100_000); err != nil {
		t.Fatal(err)
	}
	if err := mctest.CheckConservation(tr, r.Ctrl); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	// Now a tracer that saw an orphan completion.
	bad := trace.New(16, 0)
	bad.Complete(10, 0, 0, 0, 0, 99, 5, 0)
	if err := mctest.CheckConservation(bad, r.Ctrl); err == nil {
		t.Fatal("orphan completion not detected")
	}
	// And one that lost a completion.
	lost := trace.New(16, 0)
	lost.Enqueue(1, 0, 0, 0, 0, 1, false)
	if err := mctest.CheckConservation(lost, r.Ctrl); err == nil {
		t.Fatal("lost access not detected")
	}
}

// MechanismNamesFactoryForTest resolves a mechanism factory, failing the
// test on unknown names.
func MechanismNamesFactoryForTest(t *testing.T, name string) memctrl.Factory {
	t.Helper()
	f, err := MechanismByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTraceSkipEquivalence: with a tracer attached, the event stream and
// the interval metrics of a cycle-skipping run must be bit-identical to
// the cycle-by-cycle reference — bulk occupancy attribution
// (SampleOccupancySkipped) must split across interval boundaries exactly
// as per-cycle sampling would, and skipping must never reorder or drop an
// event. Parameterized over front-end behavior: swim keeps the front end
// busy (skips rare and short), while mcf's pointer chase and apsi's 6%
// memory intensity produce the long front-end-idle stretches where the
// precise CPU.NextEventCycle bound lets skips run longest — the paths
// most likely to misattribute a bulk-accounted cycle.
func TestTraceSkipEquivalence(t *testing.T) {
	for _, bench := range []string{"swim", "mcf", "apsi"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			run := func(disableSkip bool) *trace.Tracer {
				prof, err := workload.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				factory, err := MechanismByName("Burst_TH")
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.WarmupInstructions = 5_000
				cfg.Instructions = 20_000
				sys, err := NewSystem(cfg, prof, factory)
				if err != nil {
					t.Fatal(err)
				}
				sys.DisableSkip = disableSkip
				tr := trace.New(1<<20, 512)
				sys.AttachTracer(tr)
				if _, err := runSystem(cfg, sys, bench); err != nil {
					t.Fatal(err)
				}
				return tr
			}
			ref := run(true)
			compare := func(label string, got *trace.Tracer) {
				t.Helper()
				re, se := ref.Events(), got.Events()
				if len(re) != len(se) {
					t.Fatalf("%s: event counts differ: stepped %d vs %d", label, len(re), len(se))
				}
				for i := range re {
					if re[i] != se[i] {
						t.Fatalf("%s: event %d differs:\nstepped %+v\ngot     %+v", label, i, re[i], se[i])
					}
				}
				ri, si := ref.Intervals(), got.Intervals()
				if len(ri) != len(si) {
					t.Fatalf("%s: interval counts differ: stepped %d vs %d", label, len(ri), len(si))
				}
				for i := range ri {
					if ri[i] != si[i] {
						t.Fatalf("%s: interval %d differs:\nstepped %+v\ngot     %+v", label, i, ri[i], si[i])
					}
				}
			}
			compare("skipping", run(false))
		})
	}
}
