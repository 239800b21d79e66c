// Package helpers is burstlint golden-test data: an out-of-scope utility
// package hiding nondeterminism behind an ordinary-looking call, for
// detlint's import finding in the dram corpus package.
package helpers

import "time"

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }
