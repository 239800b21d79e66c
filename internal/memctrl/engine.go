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
// masks and issue one only through Issue. Banks are numbered by BankMap's
// flat index, and the occupied banks of the channel are one uint64, so the
// masks are built by visiting only banks that actually hold an ongoing
// access (bits.TrailingZeros64 per occupied bank) instead of scanning the
// whole rank×bank grid.
//
// On top of the bitmaps sits a version-guarded hint cache: for every
// occupied bank the engine remembers the next transaction and the earliest
// cycle it can issue, stamped with the channel's bank/rank/bus mutation
// counters. The channel state a hint depends on is time-independent (the
// timers are absolute cycles; only comparisons against "now" move), so a
// hint stays exact until one of its counters advances — most cycles nothing
// does, and the whole mask/next-event machinery reduces to a few version
// compares. The sync that revalidates the hints also takes their minimum
// issue bound, which is the engine's next-event answer.
type Engine struct {
	host    *Host
	idx     BankMap
	ongoing []*Access // by flat bank index
	occ     uint64    // occupied banks
	// onColumn runs after an access's column transaction issues, before
	// the bank's ongoing slot clears.
	onColumn func(a *Access, now uint64)

	// hints holds one cached (command, earliest-issue) pair per bank.
	hints []bankHint
	// classes is the reused result of Unblocked.
	classes BankClasses
	// syncedVer/dirty short-circuit sync entirely: when the channel's
	// global mutation counter has not advanced and no ongoing slot
	// changed, every hint is still exact.
	syncedVer uint64
	dirty     bool
	// minFull is the minimum issue bound across occupied banks
	// (dram.NoEvent when none), refreshed by every dirty sync. While it
	// lies in the future no bank can issue, so Unblocked skips mask
	// construction outright on such cycles; NextEventCycle answers from
	// it directly.
	minFull uint64
	shadow  engineShadow
}

// bankHint caches one occupied bank's next transaction and issue bound.
// cmd and ready depend only on bank+rank state (guarded by bankVer/rankVer);
// full folds in the data-bus availability term (guarded by busVer). All
// three are absolute cycles, so a hint with matching versions is exact
// regardless of how much time has passed.
type bankHint struct {
	cmd     dram.Cmd
	ready   uint64 // EarliestReady: bank+rank constraint bound
	full    uint64 // max(ready, ColumnBusReady): the issue bound
	bankVer uint32
	rankVer uint32
	busVer  uint32
	valid   bool
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
		idx:      NewBankMap(ch.Banks()),
		ongoing:  make([]*Access, n),
		onColumn: onColumn,
		hints:    make([]bankHint, n),
		dirty:    true,
	}
}

// BankMap returns the channel's bank numbering, which every bank argument
// and mask bit of the engine uses.
func (e *Engine) BankMap() BankMap { return e.idx }

// Ongoing returns bank f's ongoing access, or nil.
func (e *Engine) Ongoing(f int) *Access { return e.ongoing[f] }

// SetOngoing installs a as its bank's ongoing access.
//
//burstmem:hotpath
func (e *Engine) SetOngoing(a *Access) {
	f := e.idx.Of(a)
	e.ongoing[f] = a
	e.occ |= 1 << uint(f)
	e.hints[f].valid = false
	e.dirty = true
}

// ClearOngoing resets bank f's ongoing access (e.g. read preemption).
//
//burstmem:hotpath
func (e *Engine) ClearOngoing(f int) {
	e.ongoing[f] = nil
	e.occ &^= 1 << uint(f)
	e.hints[f].valid = false
	e.dirty = true
}

// OccupiedMask returns the banks with an ongoing access.
func (e *Engine) OccupiedMask() uint64 { return e.occ }

// sync revalidates the hint of every occupied bank. The global version
// check makes the common case — nothing issued, nothing submitted — free;
// otherwise only banks whose own counters moved recompute anything.
//
//burstmem:hotpath
func (e *Engine) sync() {
	ch := e.host.Channel()
	sv := ch.StateVersion()
	if !e.dirty && sv == e.syncedVer {
		return
	}
	min := uint64(dram.NoEvent)
	for mask := e.occ; mask != 0; mask &= mask - 1 {
		f := bits.TrailingZeros64(mask)
		e.syncBank(ch, f)
		if full := e.hints[f].full; full < min {
			min = full
		}
	}
	e.minFull = min
	e.dirty = false
	e.syncedVer = sv
}

// syncBank refreshes one bank's hint.
//
//burstmem:hotpath
func (e *Engine) syncBank(ch *dram.Channel, f int) {
	r, b := e.idx.Split(f)
	h := &e.hints[f]
	bv, rv, xv := ch.BankVersion(r, b), ch.RankVersion(r), ch.BusVersion()
	if h.valid && h.bankVer == bv && h.rankVer == rv {
		if h.busVer != xv {
			// Only the data bus moved: the command and the bank/rank
			// constraint bound stand; fold in the new bus term.
			h.busVer = xv
			h.full = max(h.ready, ch.ColumnBusReady(h.cmd, r))
		}
		return
	}
	a := e.ongoing[f]
	h.cmd = ch.NextCommand(a.Target(), a.Kind == KindRead)
	h.ready = ch.EarliestReady(h.cmd, a.Target())
	h.full = max(h.ready, ch.ColumnBusReady(h.cmd, r))
	h.bankVer, h.rankVer, h.busVer = bv, rv, xv
	h.valid = true
}

// Unblocked classifies every occupied bank whose next transaction can issue
// this cycle into the four Table 2 class masks, returning whether any bank
// qualified. A bank qualifies when its hint's issue bound has passed,
// unless its next command is an activate and the rank's refresh is due; no
// bank qualifies while the refresh engine holds the command slot. The
// version guards keep every hint's command and bound exact, so this is
// dram.Channel.CanIssue read from the cache (the invariants build checks
// it against CanIssue). The masks are reused across calls and valid until
// the next Unblocked or state change; on a false return they are stale and
// must not be read.
//
//burstmem:hotpath
func (e *Engine) Unblocked(now uint64) (*BankClasses, bool) {
	any := e.classify(now)
	e.shadow.checkUnblocked(e, now, any)
	return &e.classes, any
}

// classify builds Unblocked's masks and reports whether any bank qualified.
//
//burstmem:hotpath
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
	due := e.refreshDue(ch)
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

// refreshDue returns the banks of the ranks whose refresh is due
// (dram.Channel.RefreshDue). A refresh can be due only while the channel's
// refresh wake bound is at most the cycle after the current one: while a
// due refresh waits to start, the bound is that next cycle, never the
// current one.
//
//burstmem:hotpath
func (e *Engine) refreshDue(ch *dram.Channel) uint64 {
	if ch.NextEventCycle() > ch.Now()+1 {
		return 0
	}
	var due uint64
	for r := 0; r < ch.Ranks(); r++ {
		if ch.RefreshDue(r) {
			due |= e.idx.RankMask(r)
		}
	}
	return due
}

// FoldOldest folds the banks in mask into a running oldest-arrival pick
// (best < 0: nothing picked yet) and returns the new pick, or -1 when both
// are empty. Every bank in mask must hold an ongoing access. Banks are
// visited in ascending flat index and only a strictly older arrival
// replaces the pick, so arrival ties go to the lowest rank, then the
// lowest bank.
//
//burstmem:hotpath
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
// The answer is minFull after the version-guarded sync, floored at now+1
// (dram.NoEvent, the largest cycle, passes through the floor unchanged).
// An early answer only shortens a skip and cannot change simulation
// results; a late one would, so the invariants build cross-checks every
// answer against the linear scan (see shadow_on.go).
//
//burstmem:hotpath
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
//
//burstmem:hotpath
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
