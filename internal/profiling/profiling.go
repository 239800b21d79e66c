// Package profiling gives the repo's commands the conventional
// -cpuprofile/-memprofile behaviour via runtime/pprof, so simulator
// performance work (`go tool pprof`) needs no test harness — any
// experiment invocation can be profiled directly.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling (if cpuPath is non-empty) and returns a stop
// function that ends it and writes a heap profile (if memPath is
// non-empty). Callers defer the returned function from main. Empty paths
// make it a no-op, so it can be wired unconditionally:
//
//	defer profiling.Start(*cpuprofile, *memprofile)()
//
// The stop function is idempotent: profiles are finalized once, and later
// calls do nothing, so a deferred stop composes with an explicit one on an
// early-exit path.
func Start(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		check(err)
		check(pprof.StartCPUProfile(f))
		cpuFile = f
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			check(cpuFile.Close())
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			check(err)
			runtime.GC() // materialize the live heap, not allocation churn
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}
	}
	active = stop
	return stop
}

// active is the most recent Start's stop function, for Stop.
var active func()

// Stop finalizes any profiling started by Start. It is the early-exit
// companion to the deferred stop: deferred calls do not run across
// os.Exit, so a fatal-error path that just called os.Exit would truncate
// the CPU profile mid-write. Error helpers call Stop before exiting.
// Idempotent, and a no-op when Start never ran.
func Stop() {
	if active != nil {
		active()
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
		os.Exit(1)
	}
}
