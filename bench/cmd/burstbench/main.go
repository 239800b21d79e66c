// Command burstbench runs one benchmark workload for a fixed time and
// prints every metric by name with its unit. The last line of its output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	burstbench -workload swim-stream [-seed N] [-seconds S] [-trace 0|1] [-json out]
//
// With -trace 0 it reports the end-to-end host-time metrics; with
// -trace 1 it replays the workload under the per-layer ledger and reports
// the per-layer metrics instead. It exits 1 when any simulation failed its
// correctness check and 2 on a usage or setup error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"

	"burstmem/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: swim-stream, mcf-chase, apsi-sparse, fig10-grid")
		seed    = flag.Uint64("seed", 0, "input seed (0 = each profile's built-in seed)")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds (at least one rep runs)")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced replay, 0 = end-to-end metrics")
		jsonOut = flag.String("json", "", "also write the result and its provenance to this file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	w, err := bench.WorkloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opts := bench.Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	prov := bench.NewProvenance(w, opts)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	res, problems, err := bench.Run(w, opts)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "FAIL", p)
	}

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	provLine, err := json.Marshal(map[string]bench.Provenance{"provenance": prov})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *jsonOut != "" {
		doc, err := json.MarshalIndent(bench.Output{Provenance: prov, Result: res}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(doc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	fmt.Printf("%s\n", provLine)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("simulations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
