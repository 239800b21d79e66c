package bench

import (
	"sort"
	"time"
)

// The host this benchmark runs on is shared: other tenants' load slows
// the simulator by up to 75% for tens of seconds at a time, in step with
// its CPU time, so raw host times spread far more from run to run than any
// useful regression bound. The end-to-end times are therefore measured in
// reference seconds. Right before each timed job (and each setup batch)
// the runner times a probe, a fixed piece of work that does not depend on
// the simulator, and scales the measured time by probeRef over the
// probe's. A slow phase stretches the probe and the simulator alike and
// cancels out; a slower simulator does not.
//
// The probe sorts a copy of a fixed slice of pseudo-random integers, which
// is branch-heavy like the simulator's hot loops. Of the kernels tried
// against swim reps timed back to back for four minutes (random
// read-modify-writes into 2 and 8 MiB tables, map updates, number
// formatting, sorting), sorting tracked the simulator best: the medians of
// 10 s windows spread by 4.9% between their quartiles scaled, 9.5% raw.
const (
	probeLen    = 20_000
	probeRounds = 10

	// probeRef is a round figure near the probe's time on the 2-CPU x86
	// guest README.md describes, in a quiet phase: a reference second is
	// about a second of that host at that speed.
	probeRef = 16 * time.Millisecond
)

// hostProbe holds the probe's input and its scratch copy, allocated once
// so that a probe allocates nothing.
type hostProbe struct {
	src, buf []int
}

func newHostProbe() *hostProbe {
	p := &hostProbe{src: make([]int, probeLen), buf: make([]int, probeLen)}
	x := uint64(seedMix)
	for i := range p.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.src[i] = int(x >> 1)
	}
	p.time() // touch both slices before the first timed probe
	return p
}

// time runs the probe once and returns the wall and CPU time it took.
// CPU times are scaled by the probe's CPU time: a pause in which the
// process does not run stretches the probe's wall time but not its CPU
// time.
func (p *hostProbe) time() (wall, cpu time.Duration) {
	cpu0, t0 := cpuTime(), time.Now()
	for r := 0; r < probeRounds; r++ {
		copy(p.buf, p.src)
		sort.Ints(p.buf)
	}
	return time.Since(t0), cpuTime() - cpu0
}

// scale converts d, measured right after a probe that took probe, into
// reference time.
func scale(d, probe time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(probeRef) / float64(probe))
}
