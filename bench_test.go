// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices called
// out in DESIGN.md. Each benchmark runs a scaled-down simulation per
// iteration and reports the figure's headline quantities via
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature; cmd/experiments runs the
// full-size version.
package burstmem

import (
	"fmt"
	"runtime"
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
	"burstmem/internal/memctrl"
	"burstmem/internal/sim"
	"burstmem/internal/workload"
)

// benchConfig keeps per-iteration cost bounded (one iteration simulates
// tens of thousands of instructions on the full machine).
func benchConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstructions = 20_000
	cfg.Instructions = 40_000
	return cfg
}

func benchRun(b *testing.B, bench, mech string) sim.Result {
	b.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	factory, err := sim.MechanismByName(mech)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(benchConfig(), prof, factory)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1_AccessLatencies measures the three single-access
// latencies of paper Table 1 against the timing model and reports them.
func BenchmarkTable1_AccessLatencies(b *testing.B) {
	tm := dram.DDR2_800()
	tm.TREFI = 0
	var hit, empty, conflict uint64
	for i := 0; i < b.N; i++ {
		ch, err := dram.NewChannel(tm, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		var cyc uint64
		ch.Tick(0)
		// issue waits until cmd is unblocked and returns the issue cycle.
		issue := func(cmd dram.Cmd, t dram.Target) (uint64, dram.IssueResult) {
			for !ch.CanIssue(cmd, t) {
				cyc++
				ch.Tick(cyc)
			}
			at := cyc
			res := ch.Issue(cmd, t, false)
			cyc++
			ch.Tick(cyc)
			return at, res
		}
		// settle lets the busses and bank constraints drain so each case
		// measures the idle-bus latency of Table 1 (first command issue
		// to first data beat).
		settle := func() {
			for i := 0; i < 64; i++ {
				cyc++
				ch.Tick(cyc)
			}
		}
		// Row empty: activate + read.
		at, _ := issue(dram.CmdActivate, dram.Target{Row: 0})
		_, r := issue(dram.CmdRead, dram.Target{Row: 0})
		empty = r.DataStart - at
		settle()
		// Row hit: column access only.
		at, r = issue(dram.CmdRead, dram.Target{Row: 0, Col: 1})
		hit = r.DataStart - at
		settle()
		// Row conflict: precharge + activate + read.
		at, _ = issue(dram.CmdPrecharge, dram.Target{})
		issue(dram.CmdActivate, dram.Target{Row: 1})
		_, r = issue(dram.CmdRead, dram.Target{Row: 1})
		conflict = r.DataStart - at
	}
	b.ReportMetric(float64(hit), "hit-cycles")
	b.ReportMetric(float64(empty), "empty-cycles")
	b.ReportMetric(float64(conflict), "conflict-cycles")
}

// BenchmarkFigure1_SchedulingExample runs the four-access Figure 1 example
// under burst scheduling and reports the completion cycle (paper: 16 vs 28
// strictly in order).
func BenchmarkFigure1_SchedulingExample(b *testing.B) {
	var end uint64
	for i := 0; i < b.N; i++ {
		cfg := memctrl.DefaultConfig()
		cfg.Timing = dram.Figure1Timing()
		cfg.Geometry = addrmap.Geometry{Channels: 1, Ranks: 1, Banks: 2, Rows: 16, ColumnLines: 16, LineBytes: 64}
		cfg.PoolSize = 16
		cfg.MaxWrites = 8
		factory, err := sim.MechanismByName("Burst")
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := memctrl.New(cfg, factory)
		if err != nil {
			b.Fatal(err)
		}
		end = 0
		done := func(a *memctrl.Access, now uint64) {
			if now > end {
				end = now
			}
		}
		ctrl.Tick(0)
		for _, loc := range []addrmap.Loc{
			{Bank: 0, Row: 0}, {Bank: 1, Row: 0}, {Bank: 0, Row: 1}, {Bank: 0, Row: 0},
		} {
			if _, ok := ctrl.Submit(memctrl.KindRead, ctrl.Mapper().Encode(loc), done); !ok {
				b.Fatal("submit rejected")
			}
		}
		for cyc := uint64(1); !ctrl.Drained(); cyc++ {
			ctrl.Tick(cyc)
		}
	}
	b.ReportMetric(float64(end), "completion-cycles")
}

// BenchmarkFigure7_AccessLatency reports mean read and write latency per
// mechanism on the swim profile (paper Figure 7's most-discussed series).
func BenchmarkFigure7_AccessLatency(b *testing.B) {
	for _, mech := range sim.MechanismNames() {
		b.Run(mech, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = benchRun(b, "swim", mech)
			}
			b.ReportMetric(res.ReadLatency, "read-lat-cycles")
			b.ReportMetric(res.WriteLatency, "write-lat-cycles")
		})
	}
}

// BenchmarkFigure8_OutstandingAccesses reports the mean outstanding
// read/write occupancy and write-queue saturation for swim (Figure 8).
func BenchmarkFigure8_OutstandingAccesses(b *testing.B) {
	for _, mech := range []string{"BkInOrder", "RowHit", "Intel", "Burst_RP", "Burst_WP", "Burst_TH"} {
		b.Run(mech, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = benchRun(b, "swim", mech)
			}
			b.ReportMetric(res.OutstandingReads.Mean(), "mean-out-reads")
			b.ReportMetric(res.OutstandingWrites.Mean(), "mean-out-writes")
			b.ReportMetric(res.WriteSaturation*100, "wq-sat-%")
		})
	}
}

// BenchmarkFigure9_RowHitBusUtil reports row hit rate and bus utilization
// per mechanism (Figure 9), averaged over a representative benchmark mix.
func BenchmarkFigure9_RowHitBusUtil(b *testing.B) {
	mix := []string{"swim", "gcc", "mcf"}
	for _, mech := range sim.MechanismNames() {
		b.Run(mech, func(b *testing.B) {
			var hit, data, addr float64
			for i := 0; i < b.N; i++ {
				hit, data, addr = 0, 0, 0
				for _, bench := range mix {
					res := benchRun(b, bench, mech)
					hit += res.RowHit
					data += res.DataBusUtil
					addr += res.AddrBusUtil
				}
			}
			n := float64(len(mix))
			b.ReportMetric(hit/n*100, "row-hit-%")
			b.ReportMetric(data/n*100, "data-bus-%")
			b.ReportMetric(addr/n*100, "addr-bus-%")
		})
	}
}

// BenchmarkFigure10_ExecutionTime reports execution time normalized to
// BkInOrder per mechanism (Figure 10) on a representative benchmark mix.
func BenchmarkFigure10_ExecutionTime(b *testing.B) {
	mix := []string{"swim", "gcc", "mcf", "lucas"}
	for _, mech := range []string{"RowHit", "Intel", "Intel_RP", "Burst", "Burst_RP", "Burst_WP", "Burst_TH"} {
		b.Run(mech, func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				norm = 0
				for _, bench := range mix {
					base := benchRun(b, bench, "BkInOrder")
					res := benchRun(b, bench, mech)
					norm += float64(res.CPUCycles) / float64(base.CPUCycles)
				}
				norm /= float64(len(mix))
			}
			b.ReportMetric(norm, "exec/BkInOrder")
		})
	}
}

// BenchmarkFigure11_ThresholdOutstanding reports outstanding-write
// occupancy for swim across thresholds (Figure 11).
func BenchmarkFigure11_ThresholdOutstanding(b *testing.B) {
	for _, th := range []int{0, 16, 32, 48, 52, 64} {
		b.Run(fmt.Sprintf("TH%d", th), func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = benchRun(b, "swim", fmt.Sprintf("Burst_TH%d", th))
			}
			b.ReportMetric(res.OutstandingWrites.Mean(), "mean-out-writes")
			b.ReportMetric(res.WriteSaturation*100, "wq-sat-%")
		})
	}
}

// BenchmarkFigure12_ThresholdSweep reports execution time (normalized to
// plain Burst) and latencies versus threshold (Figure 12).
func BenchmarkFigure12_ThresholdSweep(b *testing.B) {
	mix := []string{"swim", "gcc", "mcf"}
	for _, th := range []int{0, 16, 32, 48, 52, 64} {
		b.Run(fmt.Sprintf("TH%d", th), func(b *testing.B) {
			var norm, rd, wr float64
			for i := 0; i < b.N; i++ {
				norm, rd, wr = 0, 0, 0
				for _, bench := range mix {
					base := benchRun(b, bench, "Burst")
					res := benchRun(b, bench, fmt.Sprintf("Burst_TH%d", th))
					norm += float64(res.CPUCycles) / float64(base.CPUCycles)
					rd += res.ReadLatency
					wr += res.WriteLatency
				}
				n := float64(len(mix))
				norm, rd, wr = norm/n, rd/n, wr/n
			}
			b.ReportMetric(norm, "exec/Burst")
			b.ReportMetric(rd, "read-lat-cycles")
			b.ReportMetric(wr, "write-lat-cycles")
		})
	}
}

// BenchmarkAblationTransactionPriority quantifies the Table 2 transaction
// priority against naive oldest-first selection (the paper's "bubble
// cycles" argument, Section 4.2).
func BenchmarkAblationTransactionPriority(b *testing.B) {
	for _, mech := range []string{"Burst", "Burst_Naive"} {
		b.Run(mech, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = benchRun(b, "swim", mech)
			}
			b.ReportMetric(float64(res.CPUCycles), "cpu-cycles")
			b.ReportMetric(res.DataBusUtil*100, "data-bus-%")
		})
	}
}

// BenchmarkAblationRowPolicy compares Open Page against Close Page
// Autoprecharge (paper Table 1's two static policies).
func BenchmarkAblationRowPolicy(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy memctrl.RowPolicy
	}{{"open-page", memctrl.OpenPage}, {"close-page-auto", memctrl.ClosePageAuto}} {
		b.Run(tc.name, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Mem.RowPolicy = tc.policy
				prof, err := workload.ByName("swim")
				if err != nil {
					b.Fatal(err)
				}
				factory, err := sim.MechanismByName("Burst_TH")
				if err != nil {
					b.Fatal(err)
				}
				res, err = sim.Run(cfg, prof, factory)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.CPUCycles), "cpu-cycles")
			b.ReportMetric(res.RowHit*100, "row-hit-%")
		})
	}
}

// BenchmarkAblationAddressMapping compares the address mappings from the
// paper's related work under burst scheduling.
func BenchmarkAblationAddressMapping(b *testing.B) {
	for _, mapping := range addrmap.Names() {
		b.Run(mapping, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Mem.Mapping = mapping
				prof, err := workload.ByName("swim")
				if err != nil {
					b.Fatal(err)
				}
				factory, err := sim.MechanismByName("Burst_TH")
				if err != nil {
					b.Fatal(err)
				}
				res, err = sim.Run(cfg, prof, factory)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.CPUCycles), "cpu-cycles")
			b.ReportMetric(res.RowHit*100, "row-hit-%")
		})
	}
}

// BenchmarkSimThroughput measures simulator performance itself: simulated
// memory cycles per wall-clock second on full-machine runs, across a
// memory-intensive streaming profile (swim), a pointer-chasing profile
// (mcf) and a compute-leaning profile (gcc). Besides the -benchmem
// whole-iteration numbers (dominated by NewSystem setup), it reports
// hotallocs/op: heap allocations during the simulation loop itself, which
// the pooled hot path keeps down to warm-up refills (it does not scale
// with simulated cycles). Regressions are judged by the repository
// benchmark instead (bench/run.sh, compared same-host by bench/ab.sh).
func BenchmarkSimThroughput(b *testing.B) {
	cases := []struct{ bench, mech string }{
		{"swim", "Burst_TH"},
		{"swim", "BkInOrder"},
		{"mcf", "Burst_TH"},
		{"gcc", "Burst_TH"},
	}
	for _, tc := range cases {
		b.Run(tc.bench+"/"+tc.mech, func(b *testing.B) {
			prof, err := workload.ByName(tc.bench)
			if err != nil {
				b.Fatal(err)
			}
			factory, err := sim.MechanismByName(tc.mech)
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchConfig()
			var simulated, hotAllocs uint64
			var ms runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := sim.NewSystem(cfg, prof, factory)
				if err != nil {
					b.Fatal(err)
				}
				target := cfg.WarmupInstructions + cfg.Instructions
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				for sys.MinRetired() < target {
					sys.FastForward()
				}
				runtime.ReadMemStats(&ms)
				hotAllocs += ms.Mallocs - before
				simulated += sys.MemCycle()
			}
			b.StopTimer()
			b.ReportMetric(float64(simulated)/b.Elapsed().Seconds(), "simcycles/s")
			b.ReportMetric(float64(hotAllocs)/float64(b.N), "hotallocs/op")
		})
	}
}

// BenchmarkControllerThroughput is a microbenchmark of the controller fast
// path: cycles simulated per second under saturation (useful when
// optimizing the simulator itself).
func BenchmarkControllerThroughput(b *testing.B) {
	cfg := memctrl.DefaultConfig()
	cfg.Timing.TREFI = 0
	factory, err := sim.MechanismByName("Burst_TH")
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := memctrl.New(cfg, factory)
	if err != nil {
		b.Fatal(err)
	}
	rng := uint64(0x12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	ctrl.Tick(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := memctrl.KindRead
		if next()%4 == 0 {
			kind = memctrl.KindWrite
		}
		if ctrl.CanAccept(kind) {
			ctrl.Submit(kind, next()%(4<<30), nil)
		}
		ctrl.Tick(uint64(i + 1))
	}
}

// BenchmarkExtensionDynamicThreshold races the paper's future-work
// adaptive threshold against the tuned static one.
func BenchmarkExtensionDynamicThreshold(b *testing.B) {
	for _, mech := range []string{"Burst_TH", "Burst_DYN"} {
		b.Run(mech, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = benchRun(b, "lucas", mech)
			}
			b.ReportMetric(float64(res.CPUCycles), "cpu-cycles")
			b.ReportMetric(res.WriteSaturation*100, "wq-sat-%")
		})
	}
}

// BenchmarkExtensionInterBurst compares FIFO inter-burst order against
// largest-burst-first (paper Section 7).
func BenchmarkExtensionInterBurst(b *testing.B) {
	for _, mech := range []string{"Burst_TH", "Burst_SZ"} {
		b.Run(mech, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = benchRun(b, "swim", mech)
			}
			b.ReportMetric(float64(res.CPUCycles), "cpu-cycles")
			b.ReportMetric(res.ReadLatency, "read-lat-cycles")
		})
	}
}

// BenchmarkExtensionCMP measures the burst-scheduling benefit as cores
// scale (paper Section 6).
func BenchmarkExtensionCMP(b *testing.B) {
	for _, cores := range []int{1, 2} {
		b.Run(fmt.Sprintf("cores-%d", cores), func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Cores = cores
				cfg.Instructions /= uint64(cores)
				cfg.WarmupInstructions /= uint64(cores)
				prof, err := workload.ByName("gcc")
				if err != nil {
					b.Fatal(err)
				}
				run := func(mech string) sim.Result {
					factory, err := sim.MechanismByName(mech)
					if err != nil {
						b.Fatal(err)
					}
					res, err := sim.Run(cfg, prof, factory)
					if err != nil {
						b.Fatal(err)
					}
					return res
				}
				norm = float64(run("Burst_TH").CPUCycles) / float64(run("BkInOrder").CPUCycles)
			}
			b.ReportMetric(norm, "exec/BkInOrder")
		})
	}
}

// BenchmarkExtensionGenerations measures the scheduling benefit across
// DRAM generations (paper Section 6: gains widen as cycle-count latencies
// grow).
func BenchmarkExtensionGenerations(b *testing.B) {
	gens := map[string]dram.Timing{
		"DDR-400":   dram.DDR_400(),
		"DDR2-800":  dram.DDR2_800(),
		"DDR3-1600": dram.DDR3_1600(),
	}
	for name, tm := range gens {
		b.Run(name, func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Mem.Timing = tm
				prof, err := workload.ByName("swim")
				if err != nil {
					b.Fatal(err)
				}
				run := func(mech string) sim.Result {
					factory, err := sim.MechanismByName(mech)
					if err != nil {
						b.Fatal(err)
					}
					res, err := sim.Run(cfg, prof, factory)
					if err != nil {
						b.Fatal(err)
					}
					return res
				}
				norm = float64(run("Burst_TH").CPUCycles) / float64(run("BkInOrder").CPUCycles)
			}
			b.ReportMetric(norm, "exec/BkInOrder")
		})
	}
}

// BenchmarkExtensionPower reports DRAM energy per access for the in-order
// baseline and burst scheduling (row hits amortize activate energy).
func BenchmarkExtensionPower(b *testing.B) {
	for _, mech := range []string{"BkInOrder", "Burst_TH"} {
		b.Run(mech, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = benchRun(b, "swim", mech)
			}
			b.ReportMetric(res.EnergyPerAccessNJ, "nJ/access")
			b.ReportMetric(res.AvgMemPowerW, "dram-watts")
		})
	}
}
