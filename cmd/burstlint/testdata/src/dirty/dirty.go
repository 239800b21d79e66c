// Package dirty is burstlint golden-test data: known errflow and
// leakcheck findings plus a hot-path allocation, spread over two files to
// pin the file-then-line output ordering.
package dirty

import (
	"os"
	"time"
)

type state struct {
	n int
}

// dropClose discards a Close error (errflow; this package's import path
// contains a cmd element, so it is in scope).
func dropClose(f *os.File) {
	f.Close()
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
