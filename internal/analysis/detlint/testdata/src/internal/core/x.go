// Package core is detlint test data: it sits under a directory whose
// import path ends in internal/core, so the analyzer treats it as
// simulation logic.
package core

import (
	"math/rand" // want `import of math/rand: process-seeded randomness breaks reproducibility`
	"sort"
	"time"
)

type sched struct {
	pending map[uint64]int
	order   []uint64
}

// pickNondeterministic iterates a map to choose work: flagged.
func (s *sched) pickNondeterministic() uint64 {
	for id := range s.pending { // want `range over map s\.pending: iteration order is nondeterministic`
		return id
	}
	return 0
}

// pickDeterministic iterates a slice: not flagged.
func (s *sched) pickDeterministic() uint64 {
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	for _, id := range s.order {
		if _, ok := s.pending[id]; ok {
			return id
		}
	}
	return 0
}

// stamp reads the wall clock: flagged.
func stamp() int64 {
	t := time.Now() // want `call of time.Now: simulation state must depend on simulated cycles`
	return t.Unix()
}

// elapsed uses time.Since: flagged.
func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `call of time.Since`
}

// duration arithmetic on simulated values is fine: not flagged.
func toNanos(cycles uint64) time.Duration {
	return time.Duration(cycles) * 2500 * time.Nanosecond / 1000
}

// spawn starts a goroutine: flagged.
func spawn(f func()) {
	go f() // want `goroutine spawn in simulation logic`
}

// spawnAllowed carries a detlint:allow comment, which is not a
// suppression: flagged.
func spawnAllowed(f func()) {
	//detlint:allow goroutine per-channel worker joins before state is read
	go f() // want `goroutine spawn in simulation logic`
}

// spawnAllowedSameLine puts the comment on the statement itself: flagged.
func spawnAllowedSameLine(f func()) {
	go f() //detlint:allow goroutine drained via the channel barrier below // want `goroutine spawn in simulation logic`
}

// roll uses the global math/rand stream (the import is already flagged).
func roll() int {
	return rand.Intn(6)
}

// allowed demonstrates the suppression contract: an ignore with a reason
// silences the diagnostic on the next line.
func allowed(m map[int]int) int {
	sum := 0
	//lint:ignore detlint summing is order-independent
	for _, v := range m {
		sum += v
	}
	return sum
}
