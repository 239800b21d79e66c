// Package dram is burstlint golden-test data: its import path ends in
// internal/dram, putting it in detlint's simulation scope.
package dram

// helpers is outside that scope (detlint).
import "burstmem/cmd/burstlint/testdata/src/helpers"

// boundary crosses into the out-of-scope helpers package, which reaches
// the wall clock behind an ordinary-looking call.
func boundary() int64 {
	return helpers.Stamp()
}
