// Package clean is burstlint golden-test data: the same shapes as the
// dirty package, written correctly, so the CLI exits 0 with no output.
package clean

import (
	"os"
)

type state struct {
	n int
}

func checkedClose(f *os.File) error {
	return f.Close()
}

// tick stays allocation-free on the annotated hot path.
//
//burstmem:hotpath
func tick(s *state, now uint64) {
	s.n = int(now)
}
