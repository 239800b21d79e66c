// Package dirty is burstlint golden-test data: a known errflow finding
// plus a hot-path allocation, spread over two files to pin the
// file-then-line output ordering.
package dirty

import (
	"os"
)

// state mirrors the clean package's.
type state struct {
	n int
}

// dropClose discards a Close error (errflow; this package's import path
// contains a cmd element, so it is in scope).
func dropClose(f *os.File) {
	f.Close()
}
