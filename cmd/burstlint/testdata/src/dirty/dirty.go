// Package dirty is burstlint golden-test data: one known finding for
// each dataflow analyzer plus a hot-path allocation, spread over two
// files to pin the file-then-line output ordering.
package dirty

import (
	"os"
	"time"

	"burstmem/internal/addrmap"
	"burstmem/internal/trace"
)

type state struct {
	banks []uint32
	n     int
}

// dropClose discards a Close error (errflow; this package's import path
// contains a cmd element, so it is in scope).
func dropClose(f *os.File) {
	f.Close()
}

// unguardedTracer dereferences a maybe-nil constructor result (nilcheck).
func unguardedTracer() int {
	tr := trace.New(16, 0)
	return tr.Len()
}

// crossDimension indexes the bank table with a rank coordinate (idxrange).
func crossDimension(s *state, loc addrmap.Loc) uint32 {
	return s.banks[loc.Rank]
}

// spawnAll reads a variable the loop reassigns from inside the spawned
// goroutine (goroutcheck).
func spawnAll(jobs []string) {
	var cur string
	for _, j := range jobs {
		cur = j
		go func() { _ = len(cur) }()
	}
}

// forgottenTicker stops the ticker on only one path; the early return
// leaks it (leakcheck).
func forgottenTicker(s *state) {
	t := time.NewTicker(time.Second)
	if s.n == 0 {
		return
	}
	t.Stop()
}

// exitPastDefer calls os.Exit while a cleanup is still deferred; the
// finding carries the call chain as structured evidence (leakcheck).
func exitPastDefer() {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	os.Exit(1)
}
