//go:build invariants

package memctrl

import (
	"fmt"
	"math/bits"

	"burstmem/internal/dram"
)

// This file is the enabled build of the engine's shadow checks (build with
// -tags invariants). Both answers the hint cache gives are cross-checked
// against a naive linear scan over the occupied banks, which recomputes
// each bank's next command from primary channel state.
//
// Every Engine.NextEventCycle answer, taken from the cache's minimum issue
// bound (minFull), is compared with the minimum EarliestIssue. An early
// answer is harmless: it only shortens an idle skip and the machine
// re-evaluates at the landing cycle. An answer LATER than the linear bound
// is a bug — TrySkip would jump over a cycle on which a transaction becomes
// issuable, silently changing simulation results — so that direction
// panics, cycle-stamped.
//
// Every Engine.Unblocked answer, read from the cached bounds, is compared
// with dram.Channel.CanIssue, the device's own statement of legality. Any
// difference panics, cycle-stamped: a bank the cache wrongly holds back
// changes which transaction a mechanism picks, and one it wrongly lets
// through reaches dram.Channel.Issue's panic.

// engineShadow is the enabled shadow checker.
type engineShadow struct{}

func (engineShadow) checkNextEvent(e *Engine, now, fast uint64) {
	ch := e.host.Channel()
	linear := dram.NoEvent
	for mask := e.occ; mask != 0; mask &= mask - 1 {
		a := e.ongoing[bits.TrailingZeros64(mask)]
		cmd := ch.NextCommand(a.Target(), a.Kind == KindRead)
		if at := ch.EarliestIssue(cmd, a.Target()); at < linear {
			linear = at
		}
	}
	if fast > linear {
		panic(fmt.Sprintf(
			"memctrl sanitizer: cycle %d: hint cache predicts next event at cycle %d but the linear scan bounds it at cycle %d (an idle skip would jump a live event)",
			now, fast, linear))
	}
}

// checkUnblocked re-derives the four class masks with NextCommand and
// CanIssue. When Unblocked reported a bank, every mask must match; when it
// reported none, the masks are stale by contract and only that verdict is
// compared.
func (engineShadow) checkUnblocked(e *Engine, now uint64, any bool) {
	ch := e.host.Channel()
	var lin BankClasses
	for mask := e.occ; mask != 0; mask &= mask - 1 {
		f := bits.TrailingZeros64(mask)
		a := e.ongoing[f]
		cmd := ch.NextCommand(a.Target(), a.Kind == KindRead)
		if !ch.CanIssue(cmd, a.Target()) {
			continue
		}
		bit := uint64(1) << uint(f)
		switch col := cmd == dram.CmdRead || cmd == dram.CmdWrite; {
		case col && a.Kind == KindRead:
			lin.ColRead |= bit
		case col:
			lin.ColWrite |= bit
		case a.Kind == KindRead:
			lin.RowRead |= bit
		default:
			lin.RowWrite |= bit
		}
	}
	if cl := &e.classes; any && *cl != lin {
		panic(fmt.Sprintf(
			"memctrl sanitizer: cycle %d: Unblocked gives class masks col-read %#x col-write %#x row-read %#x row-write %#x, but CanIssue gives %#x %#x %#x %#x (the hint cache disagrees with the device)",
			now, cl.ColRead, cl.ColWrite, cl.RowRead, cl.RowWrite,
			lin.ColRead, lin.ColWrite, lin.RowRead, lin.RowWrite))
	}
	if linearAny := lin.All() != 0; any != linearAny {
		panic(fmt.Sprintf(
			"memctrl sanitizer: cycle %d: Unblocked reports an unblocked bank: %v, but CanIssue says %v (the hint cache disagrees with the device)",
			now, any, linearAny))
	}
}
