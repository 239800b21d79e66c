package memctrl

import (
	"math/bits"

	"burstmem/internal/dram"
)

// Engine tracks each bank's ongoing access — the access whose transactions
// are currently being scheduled (paper Section 3.2) — and steps accesses
// through their precharge/activate/column transaction sequences against the
// device state. Every mechanism reuses it; policies differ only in how they
// pick ongoing accesses and which unblocked transaction they issue.
//
// Mechanisms see issuable transactions only through Unblocked's class
// masks and issue one only through Issue. Banks are numbered by the
// channel's dram.BankMap, and the occupied banks of the channel are one
// uint64, so the masks are built by visiting only banks that actually hold
// an ongoing access (bits.TrailingZeros64 per occupied bank) instead of
// scanning the whole rank×bank grid.
//
// On top of the bitmaps sits a hint cache: for every occupied bank the
// engine remembers the next transaction and the earliest cycle it can
// issue. The channel state a hint depends on is time-independent (the
// timers are absolute cycles; only comparisons against "now" move), so a
// hint stays exact until the channel reports its bank changed
// (dram.Channel.TakeChanged) — most cycles nothing does, and the whole
// mask/next-event machinery reduces to one mask test. The sync that
// refreshes the hints also takes their minimum issue bound, which is the
// engine's next-event answer.
type Engine struct {
	host    *Host
	idx     dram.BankMap
	ongoing []*Access // by flat bank index
	occ     uint64    // occupied banks
	// onColumn runs after an access's column transaction issues, before
	// the bank's ongoing slot clears.
	onColumn func(a *Access, now uint64)

	// hints holds one cached (command, earliest-issue) pair per bank.
	hints []bankHint
	// classes is the reused result of Unblocked.
	classes BankClasses
	// stale holds the banks whose ongoing slot changed since the last
	// sync: their hints describe another access, or none.
	stale uint64
	// minFull is the minimum issue bound across occupied banks
	// (dram.NoEvent when none), refreshed by every sync that finds a
	// change. While it lies in the future no bank can issue, so Unblocked
	// skips mask construction outright on such cycles; NextEventCycle
	// answers from it directly.
	minFull uint64
	shadow  engineShadow
}

// bankHint caches one occupied bank's next transaction and issue bound.
// cmd and ready depend only on bank and rank state; full folds in the
// data-bus availability term. All three are absolute cycles, so a hint
// stays exact however much time passes, until the channel reports a
// change.
type bankHint struct {
	cmd   dram.Cmd
	ready uint64 // EarliestReady: bank+rank constraint bound
	full  uint64 // max(ready, ColumnBusReady): the issue bound
}

// BankClasses holds masks of the channel's banks whose next transaction is
// unblocked this cycle, split by transaction type (column vs row) and
// access kind (read vs write) — the four groups the paper's Table 2
// priority ranks. Refresh never appears: it is channel-internal, never a
// mechanism's transaction.
type BankClasses struct {
	ColRead, ColWrite, RowRead, RowWrite uint64
}

// All returns the union of the four class masks (every unblocked bank).
func (cl *BankClasses) All() uint64 { return cl.ColRead | cl.ColWrite | cl.RowRead | cl.RowWrite }

// NewEngine builds an engine for the host's channel.
func NewEngine(host *Host, onColumn func(a *Access, now uint64)) *Engine {
	ch := host.Channel()
	n := ch.Ranks() * ch.Banks()
	return &Engine{
		host:     host,
		idx:      ch.BankMap(),
		ongoing:  make([]*Access, n),
		onColumn: onColumn,
		hints:    make([]bankHint, n),
		minFull:  dram.NoEvent,
	}
}

// BankMap returns the channel's bank numbering, which every bank argument
// and mask bit of the engine uses.
func (e *Engine) BankMap() dram.BankMap { return e.idx }

// Ongoing returns bank f's ongoing access, or nil.
func (e *Engine) Ongoing(f int) *Access { return e.ongoing[f] }

// SetOngoing installs a as its bank's ongoing access.
func (e *Engine) SetOngoing(a *Access) {
	f := a.FlatBank(e.idx)
	e.ongoing[f] = a
	e.occ |= 1 << uint(f)
	e.stale |= 1 << uint(f)
}

// ClearOngoing resets bank f's ongoing access (e.g. read preemption).
func (e *Engine) ClearOngoing(f int) {
	e.ongoing[f] = nil
	e.occ &^= 1 << uint(f)
	e.stale |= 1 << uint(f)
}

// OccupiedMask returns the banks with an ongoing access.
func (e *Engine) OccupiedMask() uint64 { return e.occ }

// sync takes the channel's changes and refreshes the hints they touch. It
// returns at once when no occupied bank changed, no ongoing slot changed
// and the data bus did not move: every hint and minFull are still exact.
// Otherwise the changed and stale occupied banks recompute their command
// and bound, every occupied bank folds in the bus term, and minFull is
// taken again. A vacated bank's stale bit forces that pass too, so minFull
// drops the bound of an access that is no longer there.
func (e *Engine) sync() {
	ch := e.host.Channel()
	changed, bus := ch.TakeChanged()
	redo := changed&e.occ | e.stale
	if redo == 0 && !bus {
		return
	}
	e.stale = 0
	min := uint64(dram.NoEvent)
	for mask := e.occ; mask != 0; mask &= mask - 1 {
		f := bits.TrailingZeros64(mask)
		h := &e.hints[f]
		a := e.ongoing[f]
		t := a.Target()
		if redo&(1<<uint(f)) != 0 {
			h.cmd = ch.NextCommand(t, a.Kind == KindRead)
			h.ready = ch.EarliestReady(h.cmd, t)
		}
		h.full = max(h.ready, ch.ColumnBusReady(h.cmd, t.Rank))
		if h.full < min {
			min = h.full
		}
	}
	e.minFull = min
}

// Unblocked classifies every occupied bank whose next transaction can issue
// this cycle into the four Table 2 class masks, returning whether any bank
// qualified. A bank qualifies when its hint's issue bound has passed,
// unless its next command is an activate and the rank's refresh is due
// (dram.Channel.DueBanks); no bank qualifies while the refresh engine holds
// the command slot. The channel's change reports keep every hint's command
// and bound exact, so this is dram.Channel.CanIssue read from the cache
// (the invariants build checks it against CanIssue). The masks are reused
// across calls and valid until the next Unblocked or state change; on a
// false return they are stale and must not be read.
func (e *Engine) Unblocked(now uint64) (*BankClasses, bool) {
	any := e.classify(now)
	e.shadow.checkUnblocked(e, now, any)
	return &e.classes, any
}

// classify builds Unblocked's masks and reports whether any bank qualified.
func (e *Engine) classify(now uint64) bool {
	ch := e.host.Channel()
	if !ch.CommandSlotFree() {
		return false
	}
	e.sync()
	if e.minFull > now {
		// Every issue bound lies in the future: no bank can qualify.
		return false
	}
	due := ch.DueBanks()
	var colRead, colWrite, rowRead, rowWrite uint64
	for mask := e.occ; mask != 0; mask &= mask - 1 {
		f := bits.TrailingZeros64(mask)
		h := &e.hints[f]
		bit := uint64(1) << uint(f)
		if h.full > now || due&bit != 0 && h.cmd == dram.CmdActivate {
			continue
		}
		col := h.cmd == dram.CmdRead || h.cmd == dram.CmdWrite
		switch read := e.ongoing[f].Kind == KindRead; {
		case col && read:
			colRead |= bit
		case col:
			colWrite |= bit
		case read:
			rowRead |= bit
		default:
			rowWrite |= bit
		}
	}
	e.classes = BankClasses{colRead, colWrite, rowRead, rowWrite}
	return e.classes.All() != 0
}

// FoldOldest folds the banks in mask into a running oldest-arrival pick
// (best < 0: nothing picked yet) and returns the new pick, or -1 when both
// are empty. Every bank in mask must hold an ongoing access. Banks are
// visited in ascending flat index and only a strictly older arrival
// replaces the pick, so arrival ties go to the lowest rank, then the
// lowest bank.
func (e *Engine) FoldOldest(mask uint64, best int) int {
	for ; mask != 0; mask &= mask - 1 {
		f := bits.TrailingZeros64(mask)
		if best < 0 || e.ongoing[f].Arrival < e.ongoing[best].Arrival {
			best = f
		}
	}
	return best
}

// NextEventCycle returns the earliest cycle any occupied bank's next
// transaction could become issuable (dram.NoEvent when no bank has an
// ongoing access). Mechanisms with no internal timers use this directly as
// their idle-skip hint: with no submissions, completions or refreshes in
// between, the channel state is frozen and nothing can happen earlier.
//
// The answer is minFull after the sync, floored at now+1
// (dram.NoEvent, the largest cycle, passes through the floor unchanged).
// An early answer only shortens a skip and cannot change simulation
// results; a late one would, so the invariants build cross-checks every
// answer against the linear scan (see shadow_on.go).
func (e *Engine) NextEventCycle(now uint64) uint64 {
	e.sync()
	next := max(e.minFull, now+1)
	e.shadow.checkNextEvent(e, now, next)
	return next
}

// Issue executes the next transaction of bank f's ongoing access and
// returns its command. The command is derived from the device state, so a
// preceding Unblocked is not required; dram.Channel.Issue panics if the
// command is blocked this cycle. For a column transaction the access
// completes: the completion is scheduled at its data end, the onColumn
// hook runs, and the bank's ongoing slot clears. Issue records the access
// start/outcome on its first transaction.
func (e *Engine) Issue(f int, now uint64) dram.Cmd {
	ch := e.host.Channel()
	a := e.ongoing[f]
	t := a.Target()
	cmd := ch.NextCommand(t, a.Kind == KindRead)
	col := cmd == dram.CmdRead || cmd == dram.CmdWrite
	e.host.StartAccess(a, now)
	res := ch.Issue(cmd, t, col && e.host.AutoPrecharge())
	if col {
		e.host.CompleteAt(a, res.DataEnd)
		if e.onColumn != nil {
			e.onColumn(a, now)
		}
		e.ClearOngoing(f)
	}
	return cmd
}
