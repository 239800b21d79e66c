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

// closeQuietly's suppression names errflow, which burstlint runs, so it
// silences the dropped error.
func closeQuietly(f *os.File) {
	//lint:ignore errflow the file was only read
	f.Close()
}
