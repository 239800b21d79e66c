// Package sim is detflow test data: its import path ends in internal/sim,
// so it is simulation scope, and it calls into the out-of-scope helpers
// package.
package sim

import "burstmem/internal/analysis/detflow/testdata/src/helpers"

var m = map[string]int{"a": 1}

// tick crosses the scope boundary in every forbidden way.
func tick() int64 {
	t := helpers.Stamp()     // want `call of helpers.Stamp reaches wall-clock time`
	_ = helpers.Pick(m)      // want `call of helpers.Pick reaches map iteration`
	_ = helpers.Roll()       // want `call of helpers.Roll reaches process-seeded rand`
	helpers.Fire(func() {})  // want `call of helpers.Fire reaches goroutine spawn`
	t += helpers.DeepClock() // want `call of helpers.DeepClock reaches wall-clock time \(helpers.DeepClock -> helpers.Stamp\)`
	return t + int64(helpers.Pure(3))
}

// inScopeHelper is simulation code itself: calls of it are not flagged
// (its own boundary call is), so the chain is reported exactly once.
func inScopeHelper() int64 { return helpers.Stamp() } // want `call of helpers.Stamp reaches wall-clock time`

// indirect calls a scoped helper: not flagged here.
func indirect() int64 { return inScopeHelper() }

// allowed demonstrates suppression at the boundary call.
func allowed() int64 {
	//lint:ignore detflow startup banner, outside the measured region
	return helpers.Stamp()
}
