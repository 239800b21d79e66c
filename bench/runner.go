package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"burstmem/internal/sim"
)

// Options control one benchmark run.
type Options struct {
	Seed    uint64
	Seconds float64 // measurement time; at least one rep always runs
	Trace   bool    // report per-layer metrics instead of end-to-end ones
}

// referenceOutput is the committed experiments output, relative to the
// repository root the benchmark runs from; the grid's Figure 10 rows must
// match it.
const referenceOutput = "experiments_output.txt"

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's outcome, printed as the last line of the output.
// Attempted counts simulations; Failed counts those that errored or whose
// Result differed from its reference, plus Figure 10 rows that differ.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// The setup measurement makes setupBatches batches of at least
// setupBatchBuilds builds each.
const (
	setupBatches     = 21
	setupBatchBuilds = 100
)

// jobRun is one simulation's outcome and host cost.
type jobRun struct {
	res     sim.Result
	digest  string
	setup   time.Duration // building the system
	dur     time.Duration // building and running it
	retired uint64        // instructions retired, warmup included
	cycles  uint64        // memory cycles simulated, warmup included
	led     *ledger       // traced runs only
	loop    loopStats     // ledger-loop runs only
	err     error
}

// repRun is one pass over every job of the workload.
type repRun struct {
	wall, cpu time.Duration // reference time for timeRep passes, host time for runRep ones
	alloc     uint64        // bytes allocated
	gcCycles  uint32
	gcPause   time.Duration
	jobs      []jobRun
}

func (r repRun) totals() (retired, cycles uint64) {
	for _, j := range r.jobs {
		retired += j.retired
		cycles += j.cycles
	}
	return retired, cycles
}

// poolSize is the number of jobs a rep runs at once. End-to-end reps run
// one job at a time, each right after a probe of the host's speed; traced
// reps, whose timings are shares within a job, run on one worker per CPU,
// at most one per job.
func poolSize(w Workload, trace bool) int {
	if !trace {
		return 1
	}
	return min(runtime.NumCPU(), len(w.Benches)*len(w.Mechs))
}

// Run measures the workload for opts.Seconds and checks every simulation.
// It returns the result and a description of each failure.
func Run(w Workload, opts Options) (Result, []string, error) {
	jobs, err := w.Jobs(opts.Seed)
	if err != nil {
		return Result{}, nil, err
	}
	committed, err := committedDigests(w.Name, w.profileSeed(opts.Seed))
	if err != nil {
		return Result{}, nil, err
	}
	cfg := w.Config()
	workers := poolSize(w, opts.Trace)

	var probe *hostProbe
	if !opts.Trace {
		probe = newHostProbe()
	}
	// End-to-end reps run sim.RunSystem. A traced run alternates reps of
	// the benchmark's own clock loop without and with the ledger, so the
	// ledger's cost is the difference between two runs of the same loop.
	var plain, traced []repRun
	var peakRSS float64
	start := time.Now()
	for {
		t0 := time.Now()
		if opts.Trace {
			plain = append(plain, runRep(cfg, jobs, workers, loopPlain))
			traced = append(traced, runRep(cfg, jobs, workers, loopTraced))
		} else {
			plain = append(plain, timeRep(cfg, jobs, probe))
		}
		if len(plain) == 1 {
			// The peak resident set of one pass over the jobs. Read at
			// the end of the run, after as many reps as the host's speed
			// allowed, it spread several times as widely.
			peakRSS = float64(rusage().Maxrss) / 1024 // Linux reports KiB
		}
		// Start another rep only if one as long as this one ends in time.
		if elapsed, rep := time.Since(start), time.Since(t0); (elapsed + rep).Seconds() > opts.Seconds {
			break
		}
	}
	var setup time.Duration
	if !opts.Trace {
		if setup, err = measureSetup(cfg, jobs, probe); err != nil {
			return Result{}, nil, err
		}
	}
	// After the reps, one job (a different one per seed) runs alone
	// through the benchmark's clock loop, which there counts the
	// simulator's own steady-state allocations, and, in a traced run,
	// through sim.RunSystem too: the two loops must agree.
	ci := int(opts.Seed % uint64(len(jobs)))
	check := runJob(cfg, jobs[ci], loopPlain)

	c := checker{jobs: jobs, committed: committed, ref: plain[0].jobs, cfg: cfg}
	for _, r := range plain {
		for i, j := range r.jobs {
			c.check("run", i, j)
		}
	}
	for _, r := range traced {
		for i, j := range r.jobs {
			c.check("traced run", i, j)
		}
	}
	c.check("ledger-loop run", ci, check)
	if opts.Trace {
		c.check("sim.RunSystem run", ci, runJob(cfg, jobs[ci], loopSim))
	}
	if w.Fig10 {
		c.fig10(w.Benches, referenceOutput)
	}

	res := Result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed}
	if opts.Trace {
		res.Metrics = layerMetrics(plain, traced, check, workers)
	} else {
		res.Metrics = endToEndMetrics(plain, setup, peakRSS)
	}
	return res, c.problems, nil
}

// measureSetup times building every system of the workload once, in
// reference time, as the median over setupBatches batches of the mean pass
// in each. A batch repeats the pass until it has made setupBatchBuilds
// builds, so the collection cycles the builds cause are averaged in rather
// than landing at random in a sub-millisecond build.
func measureSetup(cfg sim.Config, jobs []Job, probe *hostProbe) (time.Duration, error) {
	passes := (setupBatchBuilds + len(jobs) - 1) / len(jobs)
	times := make([]float64, setupBatches)
	for b := range times {
		runtime.GC()
		pt, _ := probe.time()
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for _, j := range jobs {
				if _, err := sim.NewSystem(cfg, j.Profile, j.Factory); err != nil {
					return 0, err
				}
			}
		}
		times[b] = float64(scale(time.Since(t0), pt)) / float64(passes)
	}
	return time.Duration(Median(times)), nil
}

// loopMode selects how runJob drives a simulation.
type loopMode int

const (
	loopSim    loopMode = iota // sim.NewSystem + sim.RunSystem
	loopPlain                  // the benchmark's own clock loop, untimed
	loopTraced                 // the benchmark's clock loop under a ledger
)

// runRep runs every job once on a pool of workers and measures the pass.
func runRep(cfg sim.Config, jobs []Job, workers int, mode loopMode) repRun {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	out := make([]jobRun, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = runJob(cfg, jobs[i], mode)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	return repRun{
		wall:     wall,
		cpu:      cpu,
		alloc:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		jobs:     out,
	}
}

// timeRep runs every job once through sim.RunSystem, one after another,
// each right after a probe of the host's speed, and measures the pass in
// reference time: its wall and CPU times are the sums over jobs of each
// job's times, scaled by the probes' wall and CPU times. Each job starts on a
// freshly collected heap; the ~1 MiB a system allocates stays below the
// collector's 4 MiB minimum heap goal, so no collection cycle lands at
// random inside a timed job or inflates the peak resident set.
func timeRep(cfg sim.Config, jobs []Job, probe *hostProbe) repRun {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := repRun{jobs: make([]jobRun, len(jobs))}
	var probeWall, probeCPU time.Duration
	for i, job := range jobs {
		runtime.GC()
		pw, pc := probe.time()
		probeWall += pw
		probeCPU += pc
		cpu0 := cpuTime()
		r.jobs[i] = runJob(cfg, job, loopSim)
		r.cpu += cpuTime() - cpu0
		r.wall += r.jobs[i].dur
	}
	runtime.ReadMemStats(&after)
	n := time.Duration(len(jobs))
	r.wall, r.cpu = scale(r.wall, probeWall/n), scale(r.cpu, probeCPU/n)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	return r
}

// runJob builds and runs one simulation.
func runJob(cfg sim.Config, job Job, mode loopMode) jobRun {
	var out jobRun
	t0 := time.Now()
	if mode == loopSim {
		sys, err := sim.NewSystem(cfg, job.Profile, job.Factory)
		if err != nil {
			return jobRun{err: err}
		}
		out.setup = time.Since(t0)
		if out.res, err = sim.RunSystem(cfg, sys, job.Bench); err != nil {
			return jobRun{err: err}
		}
		out.retired, out.cycles = sys.CPU.Retired(), sys.MemCycle()
	} else {
		if mode == loopTraced {
			out.led = newLedger()
		}
		out.led.enter(layerResidual)
		m, err := assemble(cfg, job.Profile, job.Factory, out.led)
		if err != nil {
			return jobRun{err: err}
		}
		out.setup = time.Since(t0)
		if out.res, err = m.run(job.Bench); err != nil {
			return jobRun{err: err}
		}
		out.led.exit()
		out.loop = m.loopStats
		out.retired, out.cycles = m.core.Retired(), m.cycle
	}
	out.dur = time.Since(t0)
	out.digest = digest(out.res)
	return out
}

// checker counts simulations and compares each Result with the committed
// digest for its job (when its profile seed has one) and with the first
// rep's.
type checker struct {
	jobs      []Job
	committed map[string]string
	ref       []jobRun
	cfg       sim.Config

	attempted, failed int
	problems          []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func (c *checker) check(label string, i int, j jobRun) {
	c.attempted++
	key := c.jobs[i].Key()
	switch {
	case j.err != nil:
		c.fail("%s %s: %v", label, key, j.err)
	case c.committed != nil && j.digest != c.committed[key]:
		c.fail("%s %s: Result digest %s, committed %s", label, key, j.digest, c.committed[key])
	case j.digest != c.ref[i].digest:
		c.fail("%s %s: Result differs from the first run's", label, key)
	case j.res.Instructions < c.cfg.Instructions || j.res.CPUCycles == 0:
		c.fail("%s %s: retired %d instructions in %d cycles, want >= %d",
			label, key, j.res.Instructions, j.res.CPUCycles, c.cfg.Instructions)
	}
}

// fig10 compares the grid's Figure 10 rows with the reference output.
func (c *checker) fig10(benches []string, reference string) {
	cycles := make(map[string]uint64, len(c.ref))
	for i, j := range c.ref {
		cycles[c.jobs[i].Key()] = j.res.CPUCycles
	}
	got, err := fig10Rows(benches, cycles)
	if err != nil {
		c.fail("Figure 10 rows: %v", err)
		return
	}
	want, err := referenceFig10Rows(reference, benches)
	if err != nil {
		c.fail("Figure 10 rows: %v", err)
		return
	}
	for i, b := range benches {
		if got[i] != want[b] {
			c.fail("Figure 10 row of %s:\n got  %q\n want %q", b, got[i], want[b])
		}
	}
}

// rusage is the process's resource usage; Getrusage cannot fail for
// RUSAGE_SELF with a valid pointer.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const mib = 1 << 20

// medianOf is the median over reps of f.
func medianOf(reps []repRun, f func(r repRun) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return Median(xs)
}

// endToEndMetrics reports the median over reps of each metric; the times
// and rates are in reference seconds.
func endToEndMetrics(reps []repRun, setup time.Duration, peakRSS float64) map[string]Metric {
	return map[string]Metric{
		"wall_s":  {medianOf(reps, func(r repRun) float64 { return r.wall.Seconds() }), "s"},
		"setup_s": {setup.Seconds(), "s"},
		"siminst_per_s": {medianOf(reps, func(r repRun) float64 {
			retired, _ := r.totals()
			return float64(retired) / r.wall.Seconds()
		}), "inst/s"},
		"simcycles_per_s": {medianOf(reps, func(r repRun) float64 {
			_, cycles := r.totals()
			return float64(cycles) / r.wall.Seconds()
		}), "cycles/s"},
		"cpu_s":        {medianOf(reps, func(r repRun) float64 { return r.cpu.Seconds() }), "s"},
		"peak_rss_mib": {peakRSS, "MiB"},
		"alloc_mib":    {medianOf(reps, func(r repRun) float64 { return float64(r.alloc) / mib }), "MiB"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reports the per-layer ledger from the traced reps, against
// the untraced reps of the same clock loop; the model counters from the
// untraced Results; and the grid counters from the untraced reps' job
// timings.
func layerMetrics(plain, traced []repRun, check jobRun, workers int) map[string]Metric {
	out := make(map[string]Metric)
	put := func(name string, v float64, unit string) { out[name] = Metric{v, unit} }

	// The ledger: self time, cost per call and call rate of every layer.
	var led ledger
	var retired, cycles, inert, skips, skipped uint64
	for _, r := range traced {
		for _, j := range r.jobs {
			if j.err != nil {
				continue // counted as failed
			}
			led.add(j.led)
			retired += j.retired
			cycles += j.cycles
			inert += j.loop.inert
			skips += j.loop.skips
			skipped += j.loop.skipped
		}
	}
	// The untraced reps ran the same loop over the same jobs, as many
	// times.
	jobTime := func(r repRun) float64 {
		var s float64
		for _, j := range r.jobs {
			s += float64(j.dur)
		}
		return s
	}
	untimed := time.Duration(medianOf(plain, jobTime) * float64(len(traced)))
	shares, spanNs := led.attribute(untimed, calibrateSpans())
	for l := layerID(0); l < numLayers; l++ {
		name := l.String()
		put(name+".self_share", shares[l], "fraction")
		if l == layerResidual {
			continue
		}
		put(name+".ns_per_call", ratio(shares[l]*float64(untimed), float64(led.calls[l])), "ns")
		put(name+".calls_per_kinst", ratio(float64(led.calls[l]), float64(retired)/1000), "1/kinst")
	}
	put("trace.span_ns", spanNs, "ns")

	// Model counters, averaged over the workload's jobs.
	mean := func(f func(r sim.Result) float64) float64 {
		var s, n float64
		for _, j := range plain[0].jobs {
			if j.err == nil {
				s += f(j.res)
				n++
			}
		}
		return ratio(s, n)
	}
	put("workload.mem_op_frac", ratio(float64(led.memOps), float64(led.ops)), "fraction")
	put("cpu.ipc", mean(func(r sim.Result) float64 { return r.IPC }), "inst/cycle")
	put("cpu.head_load_stall_frac", mean(func(r sim.Result) float64 {
		return ratio(float64(r.CPUStats.HeadLoadStalls), float64(r.CPUStats.Cycles))
	}), "fraction")
	put("cpu.rob_full_frac", mean(func(r sim.Result) float64 {
		return ratio(float64(r.CPUStats.ROBFullCycles), float64(r.CPUStats.Cycles))
	}), "fraction")
	put("cpu.inert_cycle_frac", ratio(float64(inert), float64(cycles)), "fraction")
	for _, c := range []struct {
		layer string
		stats func(r sim.Result) (missRate float64, blocked, accesses uint64)
	}{
		{"cache.l1d", func(r sim.Result) (float64, uint64, uint64) {
			s := r.L1DStats
			return s.MissRate(), s.Blocked, s.Hits + s.Misses + s.Coalesced + s.Blocked
		}},
		{"cache.l2", func(r sim.Result) (float64, uint64, uint64) {
			s := r.L2Stats
			return s.MissRate(), s.Blocked, s.Hits + s.Misses + s.Coalesced + s.Blocked
		}},
	} {
		put(c.layer+".miss_rate", mean(func(r sim.Result) float64 {
			m, _, _ := c.stats(r)
			return m
		}), "fraction")
		put(c.layer+".blocked_per_kaccess", mean(func(r sim.Result) float64 {
			_, b, a := c.stats(r)
			return 1000 * ratio(float64(b), float64(a))
		}), "1/kaccess")
	}
	put("cache.l2.writebacks_per_kinst", mean(func(r sim.Result) float64 {
		return 1000 * ratio(float64(r.L2Stats.Writebacks), float64(r.Instructions))
	}), "1/kinst")
	put("bus.rejected_frac", mean(func(r sim.Result) float64 {
		s := r.FSBStats
		return ratio(float64(s.Rejected), float64(s.Reads+s.Writes+s.Rejected))
	}), "fraction")
	put("bus.pool_stall_frac", mean(func(r sim.Result) float64 {
		return ratio(float64(r.FSBStats.PoolStalled), float64(r.MemCycles))
	}), "fraction")
	put("memctrl.row_hit_rate", mean(func(r sim.Result) float64 { return r.RowHit }), "fraction")
	put("memctrl.data_bus_util", mean(func(r sim.Result) float64 { return r.DataBusUtil }), "fraction")
	put("memctrl.write_sat_frac", mean(func(r sim.Result) float64 { return r.WriteSaturation }), "fraction")
	put("memctrl.read_latency_cycles", mean(func(r sim.Result) float64 { return r.ReadLatency }), "cycles")
	put("memctrl.read_latency_p99_cycles", mean(func(r sim.Result) float64 {
		return float64(r.ReadLatencyP99)
	}), "cycles")
	put("memctrl.mean_outstanding_reads", mean(func(r sim.Result) float64 {
		return r.OutstandingReads.Mean()
	}), "count")
	put("sched.cmds_per_tick", ratio(float64(led.cmdsTicks), float64(led.schedTicks)), "fraction")

	// Simulator self-counters.
	put("sim.skip_frac", ratio(float64(skipped), float64(cycles)), "fraction")
	put("sim.mean_skip_len", ratio(float64(skipped), float64(skips)), "cycles")
	put("sim.steady_allocs", float64(check.loop.steadyAllocs), "count")
	put("sim.gc_cycles", medianOf(plain, func(r repRun) float64 { return float64(r.gcCycles) }), "count")
	put("sim.gc_pause_s", medianOf(plain, func(r repRun) float64 { return r.gcPause.Seconds() }), "s")

	// Grid counters from the untraced reps' job timings.
	var durs []float64
	var setupSum, durSum float64
	for _, r := range plain {
		for _, j := range r.jobs {
			durs = append(durs, j.dur.Seconds())
			setupSum += j.setup.Seconds()
			durSum += j.dur.Seconds()
		}
	}
	sort.Float64s(durs)
	put("grid.job_s_p50", Quantile(durs, 0.50), "s")
	put("grid.job_s_p75", Quantile(durs, 0.75), "s")
	put("grid.pool_busy_frac", medianOf(plain, func(r repRun) float64 {
		var busy float64
		for _, j := range r.jobs {
			busy += j.dur.Seconds()
		}
		return busy / (float64(workers) * r.wall.Seconds())
	}), "fraction")
	put("grid.setup_share", ratio(setupSum, durSum), "fraction")

	wall := func(r repRun) float64 { return r.wall.Seconds() }
	put("trace.overhead_frac", medianOf(traced, wall)/medianOf(plain, wall)-1, "fraction")
	return out
}
