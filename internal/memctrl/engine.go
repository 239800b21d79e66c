package memctrl

import (
	"math/bits"

	"burstmem/internal/dram"
	"burstmem/internal/eventq"
)

// Engine tracks each bank's ongoing access — the access whose transactions
// are currently being scheduled (paper Section 3.2) — and steps accesses
// through their precharge/activate/column transaction sequences against the
// device state. Every mechanism reuses it; policies differ only in how they
// pick ongoing accesses and order candidate transactions.
//
// Occupied banks are tracked in one uint64 bitmap per rank, so candidate
// collection visits only banks that actually hold an ongoing access
// (bits.TrailingZeros64 per occupied bank) instead of scanning the whole
// rank×bank grid.
//
// On top of the bitmaps sits a version-guarded hint cache: for every
// occupied bank the engine remembers the next transaction and the earliest
// cycle it can issue, stamped with the channel's bank/rank/bus mutation
// counters. The channel state a hint depends on is time-independent (the
// timers are absolute cycles; only comparisons against "now" move), so a
// hint stays exact until one of its counters advances — most cycles nothing
// does, and the whole candidate/next-event machinery reduces to a few
// version compares plus one peek of an eventq.Wheel keyed by the hints'
// issue cycles.
type Engine struct {
	host    *Host
	banks   int
	ongoing [][]*Access // [rank][bank]
	occ     []uint64    // per-rank occupied-bank bitmaps
	// onColumn runs after an access's column transaction issues, before
	// the bank's ongoing slot clears.
	onColumn func(a *Access, now uint64)
	scratch  []Candidate

	// hints holds one cached (command, earliest-issue) pair per flattened
	// bank; wheel mirrors every valid hint's issue cycle so the earliest
	// one is a single PeekMin away. The mirror is maintained lazily:
	// scheduling-path syncs only refresh hints (and mark the wheel
	// stale), and NextEventCycle — the only wheel consumer — pushes
	// changed deadlines right before peeking. Busy phases, where the
	// skip hint is never consulted, thus pay nothing for the wheel.
	hints      []bankHint
	wheel      *eventq.Wheel
	wheelStale bool
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
	// construction outright on such cycles.
	minFull uint64
	// oldestRank/oldestBank/oldestOK cache OldestOngoing, invalidated
	// whenever an ongoing slot changes (arrival stamps are immutable).
	oldestRank  int
	oldestBank  int
	oldestOK    bool
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
	wheeled uint64 // the deadline currently mirrored in the wheel
	bankVer uint32
	rankVer uint32
	busVer  uint32
	valid   bool
}

// BankClasses holds, per rank, masks of banks whose next transaction is
// unblocked this cycle, split by transaction type (column vs row) and
// access kind (read vs write) — the four groups the paper's Table 2
// priority ranks. Refresh never appears: it is channel-internal and is not
// a candidate transaction.
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
	total := ch.Ranks() * ch.Banks()
	e.hints = make([]bankHint, total)
	for i := range e.hints {
		e.hints[i].wheeled = eventq.NoDeadline
	}
	e.wheel = eventq.NewWheel(total)
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
	h := &e.hints[rank*e.banks+bank]
	h.valid = false
	if h.wheeled != eventq.NoDeadline {
		e.wheel.Cancel(rank*e.banks + bank)
		h.wheeled = eventq.NoDeadline
	}
	e.dirty = true
	e.oldestValid = false
}

// OccupiedMask returns the rank's occupied-bank bitmap (bit b set means
// bank b has an ongoing access).
func (e *Engine) OccupiedMask(rank int) uint64 { return e.occ[rank] }

// ForEachBank visits every (rank, bank) pair in order.
func (e *Engine) ForEachBank(f func(rank, bank int)) {
	for r := range e.ongoing {
		for b := range e.ongoing[r] {
			f(r, b)
		}
	}
}

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
	e.wheelStale = true
}

// syncWheel mirrors every occupied bank's issue bound into the wheel.
// Called only from NextEventCycle, right before the peek; a fully idle
// machine runs this once and then short-circuits (sync no-ops, the wheel
// is clean, the answer is a single PeekMin).
//
//burstmem:hotpath
func (e *Engine) syncWheel() {
	if !e.wheelStale {
		return
	}
	for r := range e.occ {
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			flat := r*e.banks + b
			if h := &e.hints[flat]; h.full != h.wheeled {
				e.wheel.Schedule(flat, h.full)
				h.wheeled = h.full
			}
		}
	}
	e.wheelStale = false
}

// syncBank refreshes one bank's hint and its wheel deadline.
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
			h.full = maxU64(h.ready, ch.ColumnBusReady(h.cmd, r))
		}
		return
	}
	a := e.ongoing[r][b]
	h.cmd = ch.NextCommand(a.Target(), a.Kind == KindRead)
	h.ready = ch.EarliestReady(h.cmd, a.Target())
	h.full = maxU64(h.ready, ch.ColumnBusReady(h.cmd, r))
	h.bankVer, h.rankVer, h.busVer = bv, rv, xv
	h.valid = true
}

// Candidate is a bank's next transaction, with its unblocked status this
// cycle.
type Candidate struct {
	Rank, Bank int
	Access     *Access
	Cmd        dram.Cmd
	Unblocked  bool
}

// IsColumn reports whether the candidate transaction transfers data.
func (c Candidate) IsColumn() bool { return c.Cmd == dram.CmdRead || c.Cmd == dram.CmdWrite }

// Candidates returns the next transaction of every bank with an ongoing
// access. Blocked transactions are included (Unblocked=false) so policies
// that need "oldest access" context (paper Fig. 6 lines 14-15) can see
// them. The returned slice is reused across calls.
//
//burstmem:hotpath
func (e *Engine) Candidates() []Candidate {
	e.scratch = e.collectCandidates(e.scratch[:0])
	return e.scratch
}

// collectCandidates fills dst with the per-bank next transactions, walking
// the occupied bitmaps in (rank, bank) order. Commands come from the hint
// cache; the full CanIssue re-check runs only for banks whose cached issue
// bound has arrived (CanIssue implies the bound has passed, so the filter
// loses nothing).
//
//burstmem:hotpath
func (e *Engine) collectCandidates(dst []Candidate) []Candidate {
	e.sync()
	ch := e.host.Channel()
	now := ch.Now()
	for r := range e.occ {
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			a := e.ongoing[r][b]
			h := &e.hints[r*e.banks+b]
			//lint:ignore hotalloc appends into the caller's scratch slice, whose capacity is retained
			dst = append(dst, Candidate{
				Rank:      r,
				Bank:      b,
				Access:    a,
				Cmd:       h.cmd,
				Unblocked: h.full <= now && ch.CanIssue(h.cmd, a.Target()),
			})
		}
	}
	return dst
}

// Unblocked classifies every occupied bank whose next transaction can issue
// this cycle into the four Table 2 class masks, returning whether any bank
// qualified. The masks are reused across calls and valid until the next
// Unblocked or state change.
//
//burstmem:hotpath
func (e *Engine) Unblocked(now uint64) (*BankClasses, bool) {
	e.sync()
	if e.minFull > now {
		// Every issue bound lies in the future: no bank can qualify.
		// The stale masks are never read on the !any return.
		return &e.classes, false
	}
	ch := e.host.Channel()
	cl := &e.classes
	any := false
	for r := range e.occ {
		var colRead, colWrite, rowRead, rowWrite uint64
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			h := &e.hints[r*e.banks+b]
			if h.full > now {
				continue
			}
			a := e.ongoing[r][b]
			if !ch.CanIssue(h.cmd, a.Target()) {
				continue
			}
			bit := uint64(1) << uint(b)
			col := h.cmd == dram.CmdRead || h.cmd == dram.CmdWrite
			read := a.Kind == KindRead
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
	return cl, any
}

// CandidateAt builds the candidate for an occupied bank from its hint. Only
// meaningful immediately after Unblocked (or Candidates) on a bank one of
// the class masks reported, so Unblocked is true by construction.
//
//burstmem:hotpath
func (e *Engine) CandidateAt(rank, bank int) Candidate {
	h := &e.hints[rank*e.banks+bank]
	return Candidate{Rank: rank, Bank: bank, Access: e.ongoing[rank][bank], Cmd: h.cmd, Unblocked: true}
}

// OldestOngoing returns the occupied bank holding the oldest ongoing access
// (rank-major scan order, strict comparison — ties go to the lowest
// rank/bank, matching the candidate-slice scan it replaces). Arrival stamps
// are immutable, so the answer only changes when a bank's ongoing slot
// does; the scan result is cached until then.
//
//burstmem:hotpath
func (e *Engine) OldestOngoing() (rank, bank int, ok bool) {
	if e.oldestValid {
		return e.oldestRank, e.oldestBank, e.oldestOK
	}
	var best *Access
	for r := range e.occ {
		for mask := e.occ[r]; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			a := e.ongoing[r][b]
			if best == nil || a.Arrival < best.Arrival {
				best, rank, bank, ok = a, r, b, true
			}
		}
	}
	e.oldestRank, e.oldestBank, e.oldestOK = rank, bank, ok
	e.oldestValid = true
	return rank, bank, ok
}

// NextEventCycle returns the earliest cycle any occupied bank's next
// transaction could become issuable (dram.NoEvent when no bank has an
// ongoing access). Mechanisms with no internal timers use this directly as
// their idle-skip hint: with no submissions, completions or refreshes in
// between, the channel state is frozen and nothing can happen earlier.
//
// The answer is one wheel peek after the version-guarded sync. The wheel
// may under-estimate (its far bucket is a conservative lower bound); an
// early hint only shortens a skip and cannot change simulation results.
// Over-estimating would: the invariants build cross-checks every answer
// against the linear scan (see shadow_on.go).
//
//burstmem:hotpath
func (e *Engine) NextEventCycle(now uint64) uint64 {
	e.sync()
	e.syncWheel()
	if e.wheel.NeedRebase(now) {
		e.wheel.Rebase(now)
	}
	next := dram.NoEvent
	if at, ok := e.wheel.PeekMin(); ok {
		next = maxU64(at, now+1)
	}
	e.shadow.checkNextEvent(e, now, next)
	return next
}

// Issue executes the candidate's transaction. For a column transaction the
// access completes: the completion is scheduled at its data end, the
// onColumn hook runs, and the bank's ongoing slot clears. Issue records the
// access start/outcome on its first transaction.
//
//burstmem:hotpath
func (e *Engine) Issue(c Candidate, now uint64) {
	ch := e.host.Channel()
	a := c.Access
	e.host.StartAccess(a, now)
	res := ch.Issue(c.Cmd, a.Target(), c.IsColumn() && e.host.AutoPrecharge())
	if c.IsColumn() {
		e.host.CompleteAt(a, res.DataEnd)
		if e.onColumn != nil {
			e.onColumn(a, now)
		}
		e.ClearOngoing(c.Rank, c.Bank)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
