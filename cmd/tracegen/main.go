// Command tracegen inspects the synthetic workload generators that stand
// in for SPEC CPU2000 traces: it can dump raw ops, summarize a profile's
// instruction mix, or characterize the post-cache main-memory access
// stream (row locality, bank spread, read/write mix) a profile produces.
//
// Usage:
//
//	tracegen -bench swim -summary
//	tracegen -bench mcf -dump -n 50
//	tracegen -bench lucas -memstream -n 200000
package main

import (
	"flag"
	"fmt"
	"os"

	"burstmem/internal/addrmap"
	"burstmem/internal/stats"
	"burstmem/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "swim", "benchmark profile")
		n         = flag.Int("n", 100_000, "ops to generate")
		dump      = flag.Bool("dump", false, "dump raw ops")
		memstream = flag.Bool("memstream", false, "characterize the DRAM-coordinate stream of memory ops")
		summary   = flag.Bool("summary", true, "print the instruction-mix summary")
		list      = flag.Bool("list", false, "list profiles and exit")
		record    = flag.String("record", "", "write n ops of the profile to a trace file (see workload trace format)")
	)
	flag.Parse()

	if *list {
		for _, p := range workload.Profiles() {
			fmt.Printf("%-8s mem %.2f stores %.2f stride %dB streams %d ws %dMB burstiness %.2f\n",
				p.Name, p.MemFraction, p.StoreFraction, strideOf(p), p.Streams,
				p.WorkingSet>>20, p.Burstiness)
		}
		return
	}

	if *n < 1 {
		fatal(fmt.Errorf("-n %d: need at least one op", *n))
	}
	prof, err := workload.ByName(*bench)
	fatal(err)
	gen, err := workload.New(prof)
	fatal(err)

	if *record != "" {
		f, err := os.Create(*record)
		fatal(err)
		fatal(workload.WriteTrace(f, gen, *n))
		fatal(f.Close())
		fmt.Printf("recorded %d ops of %s to %s\n", *n, prof.Name, *record)
		return
	}

	if *dump {
		for i := 0; i < *n; i++ {
			op := gen.Next()
			switch op.Type {
			case workload.OpNonMem:
				fmt.Printf("%7d  nonmem\n", i)
			default:
				dep := ""
				if op.DepOnPrevLoad {
					dep = "  (dep on prev load)"
				}
				fmt.Printf("%7d  %-5s %#012x%s\n", i, op.Type, op.Addr, dep)
			}
		}
		return
	}

	if *memstream {
		characterize(gen, *n)
		return
	}

	if *summary {
		summarize(prof, gen, *n)
	}
}

func strideOf(p workload.Profile) int {
	if p.StrideBytes == 0 {
		return 8
	}
	return p.StrideBytes
}

func summarize(prof workload.Profile, gen workload.Generator, n int) {
	var loads, stores, nonmem, deps int
	lines := map[uint64]struct{}{}
	for i := 0; i < n; i++ {
		op := gen.Next()
		switch op.Type {
		case workload.OpNonMem:
			nonmem++
		case workload.OpLoad:
			loads++
			lines[op.Addr>>6] = struct{}{}
		case workload.OpStore:
			stores++
			lines[op.Addr>>6] = struct{}{}
		}
		if op.DepOnPrevLoad {
			deps++
		}
	}
	mem := loads + stores
	fmt.Printf("profile %s over %d ops\n", prof.Name, n)
	t := stats.NewTable("metric", "value")
	t.AddRow("memory ops", fmt.Sprintf("%d (%.1f%%)", mem, pct(mem, n)))
	t.AddRow("loads", fmt.Sprintf("%d (%.1f%% of mem)", loads, pct(loads, mem)))
	t.AddRow("stores", fmt.Sprintf("%d (%.1f%% of mem)", stores, pct(stores, mem)))
	t.AddRow("dependent loads", fmt.Sprintf("%d (%.1f%% of loads)", deps, pct(deps, loads)))
	t.AddRow("distinct lines", fmt.Sprintf("%d", len(lines)))
	t.AddRow("ops per distinct line", fmt.Sprintf("%.2f", float64(mem)/float64(max(1, len(lines)))))
	fmt.Print(t.String())
}

// characterize decodes the memory ops through the baseline address mapping
// and reports the row locality and bank spread the memory controller will
// see (ignoring cache filtering).
func characterize(gen workload.Generator, n int) {
	mapper := addrmap.NewPageInterleave(addrmap.DefaultGeometry())
	type bankKey struct{ ch, rank, bank uint8 }
	lastRow := map[bankKey]uint32{}
	var sameRow, total int
	bankCount := map[bankKey]int{}
	for i := 0; i < n; i++ {
		op := gen.Next()
		if op.Type == workload.OpNonMem {
			continue
		}
		loc := mapper.Decode(op.Addr)
		k := bankKey{loc.Channel, loc.Rank, loc.Bank}
		if row, seen := lastRow[k]; seen && row == loc.Row {
			sameRow++
		}
		lastRow[k] = loc.Row
		bankCount[k]++
		total++
	}
	fmt.Printf("raw stream row locality (same row as previous access to the bank): %.1f%%\n",
		pct(sameRow, total))
	fmt.Printf("banks touched: %d of %d\n", len(bankCount), addrmap.DefaultGeometry().TotalBanks())
	lo, hi := -1, 0
	for _, c := range bankCount {
		if lo < 0 || c < lo {
			lo = c
		}
		hi = max(hi, c)
	}
	fmt.Printf("accesses per bank: min %d, max %d (spread %.2fx)\n", lo, hi,
		float64(hi)/float64(max(1, lo)))
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
