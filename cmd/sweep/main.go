// Command sweep explores the burst scheduling design space: the static
// threshold that switches between read preemption and write piggybacking
// (paper Section 5.4, Figures 11 and 12).
//
// For each threshold in the sweep it simulates the chosen benchmarks and
// prints execution time (normalized to plain Burst), read/write latency,
// outstanding-access statistics and write-queue saturation, then reports
// the threshold with the lowest execution time.
//
// Usage:
//
//	sweep -bench swim                 # Figure 11 style, one benchmark
//	sweep -all -n 300000              # Figure 12 style, all benchmarks
//	sweep -thresholds 0,16,32,48,64
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"burstmem/internal/profiling"
	"burstmem/internal/sim"
	"burstmem/internal/stats"
	"burstmem/internal/workload"
)

func main() {
	var (
		benchFlag  = flag.String("bench", "swim", "comma-separated benchmarks")
		all        = flag.Bool("all", false, "sweep across all 16 benchmarks")
		n          = flag.Uint64("n", 200_000, "measured instructions per run")
		warmup     = flag.Uint64("warmup", 200_000, "warmup instructions per run")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "concurrent simulations")
		thresholds = flag.String("thresholds", "0,8,16,24,32,40,48,52,56,60,64",
			"comma-separated thresholds (0 = Burst_WP, write-queue size = Burst_RP)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	defer profiling.Start(*cpuprofile, *memprofile)()

	benches := strings.Split(*benchFlag, ",")
	if *all {
		benches = workload.Names()
	}
	var ths []int
	for _, s := range strings.Split(*thresholds, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 0 {
			fatal(fmt.Errorf("bad threshold %q", s))
		}
		ths = append(ths, v)
	}

	cfg := sim.DefaultConfig()
	cfg.Instructions = *n
	cfg.WarmupInstructions = *warmup

	mechs := []string{"Burst"}
	for _, th := range ths {
		mechs = append(mechs, fmt.Sprintf("Burst_TH%d", th))
	}

	// One job per benchmark×mechanism, benchmark-major; each goroutine
	// writes its own result slot, and the table is built after the pool
	// drains.
	results := make([]sim.Result, len(benches)*len(mechs))
	sem := make(chan struct{}, maxInt(1, *parallel))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			prof, err := workload.ByName(benches[i/len(mechs)])
			fatal(err)
			factory, err := sim.MechanismByName(mechs[i%len(mechs)])
			fatal(err)
			res, err := sim.Run(cfg, prof, factory)
			fatal(err)
			results[i] = res
		}(i)
	}
	wg.Wait()

	// agg averages mechanism mechs[mi] over the benchmarks.
	agg := func(mi int) (exec, rd, wr, outR, outW, sat float64) {
		for bi := range benches {
			r := results[bi*len(mechs)+mi]
			exec += float64(r.CPUCycles)
			rd += r.ReadLatency
			wr += r.WriteLatency
			outR += r.OutstandingReads.Mean()
			outW += r.OutstandingWrites.Mean()
			sat += r.WriteSaturation
		}
		nb := float64(len(benches))
		return exec / nb, rd / nb, wr / nb, outR / nb, outW / nb, sat / nb
	}

	baseExec, _, _, _, _, _ := agg(0)
	fmt.Printf("threshold sweep over %v (%d instructions each, write queue size %d)\n\n",
		benches, *n, cfg.Mem.MaxWrites)
	t := stats.NewTable("threshold", "exec/Burst", "read lat", "write lat",
		"avg out reads", "avg out writes", "wq sat %")
	best, bestExec := -1, 0.0
	for ti, th := range ths {
		exec, rd, wr, outR, outW, sat := agg(ti + 1)
		if best < 0 || exec < bestExec {
			best, bestExec = th, exec
		}
		t.AddRow(fmt.Sprintf("%d", th), fmt.Sprintf("%.3f", exec/baseExec),
			rd, wr, outR, outW, fmt.Sprintf("%.1f", sat*100))
	}
	fmt.Print(t.String())
	fmt.Printf("\nbest threshold: %d (paper: 52 of a 64-entry write queue)\n", best)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		// Deferred cleanups do not run across os.Exit; finalize any
		// in-flight profile so -cpuprofile is not truncated by a fatal
		// error.
		profiling.Stop()
		os.Exit(1)
	}
}
