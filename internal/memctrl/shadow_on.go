//go:build invariants

package memctrl

import (
	"fmt"
	"math/bits"

	"burstmem/internal/dram"
)

// This file is the enabled build of the next-event shadow checker (build
// with -tags invariants). Every Engine.NextEventCycle answer, taken from
// the hint cache's minimum issue bound (minFull), is cross-checked against
// the naive linear scan: per occupied bank, recompute the next command and
// its EarliestIssue from primary channel state and take the minimum.
//
// An early answer is harmless: it only shortens an idle skip and the
// machine re-evaluates at the landing cycle. An answer LATER than the
// linear bound is a bug — TrySkip would jump over a cycle on which a
// transaction becomes issuable, silently changing simulation results — so
// that direction panics, cycle-stamped.

// engineShadow is the enabled next-event shadow checker.
type engineShadow struct{}

func (engineShadow) checkNextEvent(e *Engine, now, fast uint64) {
	ch := e.host.Channel()
	linear := dram.NoEvent
	for r := range e.occ {
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			a := e.ongoing[r][b]
			cmd := ch.NextCommand(a.Target(), a.Kind == KindRead)
			if at := ch.EarliestIssue(cmd, a.Target()); at < linear {
				linear = at
			}
		}
	}
	if fast > linear {
		panic(fmt.Sprintf(
			"memctrl sanitizer: cycle %d: hint cache predicts next event at cycle %d but the linear scan bounds it at cycle %d (an idle skip would jump a live event)",
			now, fast, linear))
	}
}
