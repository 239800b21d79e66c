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
// masks and issue one only through Issue. Occupied banks are tracked in
// one uint64 bitmap per rank, so the masks are built by visiting only
// banks that actually hold an ongoing access (bits.TrailingZeros64 per
// occupied bank) instead of scanning the whole rank×bank grid.
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
	banks   int
	ongoing [][]*Access // [rank][bank]
	occ     []uint64    // per-rank occupied-bank bitmaps
	// onColumn runs after an access's column transaction issues, before
	// the bank's ongoing slot clears.
	onColumn func(a *Access, now uint64)

	// hints holds one cached (command, earliest-issue) pair per flattened
	// bank.
	hints []bankHint
	// classes is the reused result of Unblocked (per-rank class masks).
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
	// oldestRank/oldestBank cache OldestOngoing (oldestRank < 0: no
	// ongoing access), invalidated whenever an ongoing slot changes
	// (arrival stamps are immutable).
	oldestRank  int
	oldestBank  int
	oldestValid bool
	shadow      engineShadow
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

// BankClasses holds, per rank, masks of banks whose next transaction is
// unblocked this cycle, split by transaction type (column vs row) and
// access kind (read vs write) — the four groups the paper's Table 2
// priority ranks. Refresh never appears: it is channel-internal, never a
// mechanism's transaction.
type BankClasses struct {
	ColRead  []uint64
	ColWrite []uint64
	RowRead  []uint64
	RowWrite []uint64
}

// Rank returns the union of the rank's four class masks (every unblocked
// bank of the rank).
//
//burstmem:hotpath
func (cl *BankClasses) Rank(r int) uint64 {
	return cl.ColRead[r] | cl.ColWrite[r] | cl.RowRead[r] | cl.RowWrite[r]
}

// NewEngine builds an engine for the host's channel.
func NewEngine(host *Host, onColumn func(a *Access, now uint64)) *Engine {
	e := &Engine{host: host, onColumn: onColumn}
	ch := host.Channel()
	e.banks = ch.Banks()
	e.ongoing = make([][]*Access, ch.Ranks())
	e.occ = make([]uint64, ch.Ranks())
	for r := range e.ongoing {
		e.ongoing[r] = make([]*Access, ch.Banks())
	}
	e.hints = make([]bankHint, ch.Ranks()*ch.Banks())
	e.classes = BankClasses{
		ColRead:  make([]uint64, ch.Ranks()),
		ColWrite: make([]uint64, ch.Ranks()),
		RowRead:  make([]uint64, ch.Ranks()),
		RowWrite: make([]uint64, ch.Ranks()),
	}
	e.dirty = true
	return e
}

// Ongoing returns the bank's ongoing access, or nil.
func (e *Engine) Ongoing(rank, bank int) *Access { return e.ongoing[rank][bank] }

// SetOngoing installs the bank's ongoing access.
//
//burstmem:hotpath
func (e *Engine) SetOngoing(rank, bank int, a *Access) {
	e.ongoing[rank][bank] = a
	e.occ[rank] |= 1 << uint(bank)
	e.hints[rank*e.banks+bank].valid = false
	e.dirty = true
	e.oldestValid = false
}

// ClearOngoing resets the bank's ongoing access (e.g. read preemption).
//
//burstmem:hotpath
func (e *Engine) ClearOngoing(rank, bank int) {
	e.ongoing[rank][bank] = nil
	e.occ[rank] &^= 1 << uint(bank)
	e.hints[rank*e.banks+bank].valid = false
	e.dirty = true
	e.oldestValid = false
}

// OccupiedMask returns the rank's occupied-bank bitmap (bit b set means
// bank b has an ongoing access).
func (e *Engine) OccupiedMask(rank int) uint64 { return e.occ[rank] }

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
	for r := range e.occ {
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			e.syncBank(ch, r, b)
			if f := e.hints[r*e.banks+b].full; f < min {
				min = f
			}
		}
	}
	e.minFull = min
	e.dirty = false
	e.syncedVer = sv
}

// syncBank refreshes one bank's hint.
//
//burstmem:hotpath
func (e *Engine) syncBank(ch *dram.Channel, r, b int) {
	flat := r*e.banks + b
	h := &e.hints[flat]
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
	a := e.ongoing[r][b]
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
	cl := &e.classes
	any := false
	for r := range e.occ {
		refreshDue := ch.RefreshDue(r)
		var colRead, colWrite, rowRead, rowWrite uint64
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			h := &e.hints[r*e.banks+b]
			if h.full > now || refreshDue && h.cmd == dram.CmdActivate {
				continue
			}
			bit := uint64(1) << uint(b)
			col := h.cmd == dram.CmdRead || h.cmd == dram.CmdWrite
			read := e.ongoing[r][b].Kind == KindRead
			switch {
			case col && read:
				colRead |= bit
			case col:
				colWrite |= bit
			case read:
				rowRead |= bit
			default:
				rowWrite |= bit
			}
			any = true
		}
		cl.ColRead[r], cl.ColWrite[r] = colRead, colWrite
		cl.RowRead[r], cl.RowWrite[r] = rowRead, rowWrite
	}
	return any
}

// FoldOldest folds the rank's banks in mask into a running oldest-arrival
// pick (bestRank < 0: nothing picked yet) and returns the new pick. Every
// bank in mask must hold an ongoing access. A strictly older arrival
// replaces the pick, so when callers fold ranks in ascending order, arrival
// ties go to the lowest rank, then the lowest bank.
//
//burstmem:hotpath
func (e *Engine) FoldOldest(rank int, mask uint64, bestRank, bestBank int) (int, int) {
	for ; mask != 0; mask &= mask - 1 {
		b := bits.TrailingZeros64(mask)
		if bestRank < 0 || e.ongoing[rank][b].Arrival < e.ongoing[bestRank][bestBank].Arrival {
			bestRank, bestBank = rank, b
		}
	}
	return bestRank, bestBank
}

// OldestOngoing returns the occupied bank holding the oldest ongoing access
// (arrival ties go to the lowest rank, then bank). Arrival stamps are
// immutable, so the answer only changes when a bank's ongoing slot does;
// it is cached until then.
//
//burstmem:hotpath
func (e *Engine) OldestOngoing() (rank, bank int, ok bool) {
	if !e.oldestValid {
		e.oldestRank, e.oldestBank = -1, -1
		for r, mask := range e.occ {
			e.oldestRank, e.oldestBank = e.FoldOldest(r, mask, e.oldestRank, e.oldestBank)
		}
		e.oldestValid = true
	}
	return e.oldestRank, e.oldestBank, e.oldestRank >= 0
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

// Issue executes the next transaction of the bank's ongoing access and
// returns its command. The command is derived from the device state, so a
// preceding Unblocked is not required; dram.Channel.Issue panics if the
// command is blocked this cycle. For a column transaction the access
// completes: the completion is scheduled at its data end, the onColumn
// hook runs, and the bank's ongoing slot clears. Issue records the access
// start/outcome on its first transaction.
//
//burstmem:hotpath
func (e *Engine) Issue(rank, bank int, now uint64) dram.Cmd {
	ch := e.host.Channel()
	a := e.ongoing[rank][bank]
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
		e.ClearOngoing(rank, bank)
	}
	return cmd
}
