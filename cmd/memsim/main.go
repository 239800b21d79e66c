// Command memsim runs one memory-system simulation: a synthetic benchmark
// profile on the Table 3 baseline machine under a chosen access reordering
// mechanism, printing the measurements the paper's evaluation reports.
//
// Usage:
//
//	memsim -bench swim -mech Burst_TH -n 1000000
//	memsim -bench mcf -mech BkInOrder -mapping bit-reversal -row-policy cpa
//	memsim -bench swim -mech Burst_TH -trace out.json   # Perfetto timeline
//	memsim -replay mcf.trace -mech Burst_TH             # run a recorded trace
//
// -replay reads a text trace (tracegen -record writes one); -trace writes
// a timeline, overwriting its path, so never point it at a trace to replay.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"burstmem/internal/memctrl"
	"burstmem/internal/sim"
	"burstmem/internal/stats"
	"burstmem/internal/trace"
	"burstmem/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "swim", "benchmark profile (see -list)")
		mech      = flag.String("mech", "Burst_TH", "mechanism: "+sim.MechanismListing())
		n         = flag.Uint64("n", 1_000_000, "instructions to simulate")
		mapping   = flag.String("mapping", "page-interleave", "address mapping: page-interleave, line-interleave, bit-reversal, permutation")
		rowPolicy = flag.String("row-policy", "op", "row policy: op (open page) or cpa (close page autoprecharge)")
		list      = flag.Bool("list", false, "list benchmarks and mechanisms, then exit")
		seed      = flag.Uint64("seed", 0, "override the profile's workload seed (0 = default)")
		memfrac   = flag.Float64("memfrac", 0, "override the profile's memory fraction (0 = default)")
		warmup    = flag.Uint64("warmup", 300_000, "warmup instructions")
		replay    = flag.String("replay", "", "replay a recorded trace file instead of a synthetic profile")

		traceOut      = flag.String("trace", "", "write a Chrome trace_event JSON timeline (open in ui.perfetto.dev)")
		traceEvents   = flag.Int("trace-events", 1<<20, "event ring capacity for -trace (oldest events overwritten)")
		traceInterval = flag.Uint64("trace-interval", 1000, "metrics interval for -trace, in memory cycles")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:", workload.Names())
		fmt.Println("mechanisms:", sim.MechanismListing())
		return
	}

	if *traceEvents < 1 {
		fatal(fmt.Errorf("-trace-events %d: need at least one event", *traceEvents))
	}
	prof, err := workload.ByName(*bench)
	fatal(err)
	if *seed != 0 {
		prof.Seed = *seed
	}
	if *memfrac != 0 {
		prof.MemFraction = *memfrac
	}
	factory, err := sim.MechanismByName(*mech)
	fatal(err)

	cfg := sim.DefaultConfig()
	cfg.Instructions = *n
	cfg.WarmupInstructions = *warmup
	cfg.Mem.Mapping = *mapping
	switch *rowPolicy {
	case "op":
		cfg.Mem.RowPolicy = memctrl.OpenPage
	case "cpa":
		cfg.Mem.RowPolicy = memctrl.ClosePageAuto
	default:
		fatal(fmt.Errorf("unknown row policy %q", *rowPolicy))
	}

	var sys *sim.System
	name := prof.Name
	if *replay != "" {
		f, err := os.Open(*replay)
		fatal(err)
		gen, err := workload.ParseTrace(*replay, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fatal(err)
		name = *replay
		sys, err = sim.NewSystemWithGenerators(cfg, []workload.Generator{gen}, factory)
		fatal(err)
	} else {
		sys, err = sim.NewSystem(cfg, prof, factory)
		fatal(err)
	}

	var tr *trace.Tracer
	if *traceOut != "" {
		tr = trace.New(*traceEvents, *traceInterval)
		sys.AttachTracer(tr)
	}

	res, err := sim.RunSystem(cfg, sys, name)
	fatal(err)
	printResult(res, sys.Ctrl.Stats.ReadLatencyHist.Size()-1)
	cc := sys.Census()
	fmt.Printf("memory cycles by  stepped %d  cpu-inert %d  skipped %d  (warmup included)\n",
		cc.Stepped, cc.Collapsed, cc.Skipped)

	if tr != nil {
		f, err := os.Create(*traceOut)
		fatal(err)
		label := fmt.Sprintf("%s/%s", name, res.Mechanism)
		err = trace.WriteChrome(f, tr, label)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fatal(err)
		fmt.Printf("trace             %s (%d events held, %d overwritten, %d metric intervals)\n",
			*traceOut, tr.Len(), tr.Dropped(), len(tr.Intervals()))
		printTraceLatency(tr)
	}
}

// printTraceLatency reconstructs the enqueue-to-completion read-latency
// distribution from the trace stream: the per-access data behind the mean
// and percentiles above, limited to the window the ring still holds.
// Forwarded reads are excluded (they never reach the device), as are
// completions whose enqueue event was overwritten in the ring.
func printTraceLatency(tr *trace.Tracer) {
	const bin = 16
	h := stats.NewHistogram(64)
	enq := make(map[uint64]uint64)
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.EvEnqueue:
			if e.Arg1 == 0 { // read
				enq[e.Arg0] = e.Cycle
			}
		case trace.EvComplete:
			if e.Arg2&(trace.FlagWrite|trace.FlagForwarded) != 0 {
				continue
			}
			start, ok := enq[e.Arg0]
			if !ok {
				continue
			}
			delete(enq, e.Arg0)
			h.Add(int((e.Cycle - start) / bin))
		}
	}
	if h.Total() == 0 {
		return
	}
	fmt.Printf("traced read latency distribution (%d reads, %d-cycle bins):\n", h.Total(), bin)
	for b := 0; b <= h.NonzeroMax(); b++ {
		if c := h.Count(b); c > 0 {
			label := fmt.Sprintf("[%4d,%4d)", b*bin, (b+1)*bin)
			if b == h.Size()-1 { // Add clamps: the last bin holds every longer read
				label = fmt.Sprintf(">=%d", b*bin)
			}
			fmt.Printf("  %-11s  %8d  %5.1f%%\n", label, c, h.Fraction(b)*100)
		}
	}
}

// printResult prints the measurements; last is the read-latency
// histogram's last bucket, which holds every longer latency too.
func printResult(r sim.Result, last int) {
	fmt.Printf("benchmark         %s\n", r.Benchmark)
	fmt.Printf("mechanism         %s\n", r.Mechanism)
	fmt.Printf("instructions      %d\n", r.Instructions)
	fmt.Printf("cpu cycles        %d  (IPC %.3f)\n", r.CPUCycles, r.IPC)
	fmt.Printf("memory cycles     %d\n", r.MemCycles)
	fmt.Printf("mem reads/writes  %d / %d  (forwarded reads %d)\n", r.MemReads, r.MemWrites, r.ForwardedReads)
	fmt.Printf("read latency      %.1f memory cycles (p50 %s, p95 %s, p99 %s)\n",
		r.ReadLatency, clamped(r.ReadLatencyP50, last), clamped(r.ReadLatencyP95, last), clamped(r.ReadLatencyP99, last))
	fmt.Printf("write latency     %.1f memory cycles\n", r.WriteLatency)
	fmt.Printf("row outcomes      hit %.3f  empty %.3f  conflict %.3f\n", r.RowHit, r.RowEmpty, r.RowConflict)
	fmt.Printf("bus utilization   data %.3f  address %.3f\n", r.DataBusUtil, r.AddrBusUtil)
	fmt.Printf("write queue sat   %.3f of time\n", r.WriteSaturation)
	fmt.Printf("bandwidth         %.2f GB/s\n", r.BandwidthGBps)
	fmt.Printf("DRAM energy       %.1f nJ/access  (avg power %.2f W)\n", r.EnergyPerAccessNJ, r.AvgMemPowerW)
	fmt.Printf("L1D miss rate     %.4f   L2 miss rate %.4f\n", r.L1DStats.MissRate(), r.L2Stats.MissRate())
	fmt.Printf("cpu stalls        head-load %d  store-buf %d  rob-full %d\n",
		r.CPUStats.HeadLoadStalls, r.CPUStats.StoreBufFullStalls, r.CPUStats.ROBFullCycles)
}

// clamped prints a percentile that falls in the last histogram bucket as
// a lower bound: the bucket also holds every larger value.
func clamped(v, last int) string {
	if v >= last {
		return fmt.Sprintf(">=%d", last)
	}
	return strconv.Itoa(v)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "memsim:", err)
		os.Exit(1)
	}
}
