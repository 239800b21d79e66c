package dram

import (
	"fmt"

	"burstmem/internal/trace"
)

// Cmd is an SDRAM command type.
type Cmd int

// SDRAM commands issued by the memory controller. Refresh is issued
// internally by the channel's refresh engine.
const (
	CmdPrecharge Cmd = iota
	CmdActivate
	CmdRead
	CmdWrite
	CmdRefresh
)

// String implements fmt.Stringer.
func (c Cmd) String() string {
	switch c {
	case CmdPrecharge:
		return "PRE"
	case CmdActivate:
		return "ACT"
	case CmdRead:
		return "READ"
	case CmdWrite:
		return "WRITE"
	case CmdRefresh:
		return "REF"
	}
	return fmt.Sprintf("Cmd(%d)", int(c))
}

// Target identifies the destination of a command within a channel.
type Target struct {
	Rank int
	Bank int
	Row  uint32 // used by Activate
	Col  uint32 // used by Read/Write (line-granularity column)
}

// RowOutcome classifies an access by the bank state it encountered
// (paper Section 2).
type RowOutcome int

// Row outcomes: a hit needs only a column access, an empty needs activate +
// column, a conflict needs precharge + activate + column.
const (
	RowHit RowOutcome = iota
	RowEmpty
	RowConflict
)

// String implements fmt.Stringer.
func (o RowOutcome) String() string {
	switch o {
	case RowHit:
		return "hit"
	case RowEmpty:
		return "empty"
	case RowConflict:
		return "conflict"
	}
	return fmt.Sprintf("RowOutcome(%d)", int(o))
}

// bank holds per-bank state and earliest-issue constraints.
type bank struct {
	open bool
	row  uint32
	// ver increments whenever this bank's state or timers change; the
	// controller engine uses it to invalidate cached per-bank hints.
	ver uint32

	nextActivate  uint64
	nextPrecharge uint64
	nextRead      uint64
	nextWrite     uint64
}

// rank holds per-rank state: activate pacing, write-to-read turnaround and
// the refresh engine.
type rank struct {
	banks []bank

	// Activate timestamps are stored as cycle+1 so the zero value means
	// "never activated".
	lastActivate uint64 // for tRRD
	actWindow    [4]uint64
	actIdx       int

	writeDataEnd uint64 // for tWTR (same-rank write-to-read)

	nextRefresh  uint64 // cycle the next refresh becomes due
	refreshUntil uint64 // busy refreshing until this cycle (exclusive)

	// ver increments whenever rank-wide constraint state changes (activate
	// pacing, write turnaround, refresh schedule).
	ver uint32
	// openBanks counts open banks, for O(1) active-rank sampling.
	openBanks int
}

// Stats accumulates channel activity for utilization reporting.
type Stats struct {
	Commands      uint64 // address/command bus busy cycles
	DataBusCycles uint64 // data bus busy cycles
	Reads         uint64
	Writes        uint64
	Activates     uint64
	Precharges    uint64
	Refreshes     uint64
	Outcomes      [3]uint64 // indexed by RowOutcome, counted at Classify-on-issue time
	// ActiveRankCycles counts rank-cycles with at least one open bank
	// (sampled in Tick), for background power accounting.
	ActiveRankCycles uint64
}

// Channel models one independent memory channel: a command/address bus, a
// shared data bus and a set of ranks each with internal banks.
type Channel struct {
	T     Timing
	Stats Stats

	ranks []rank
	now   uint64

	// data bus bookkeeping
	busBusyUntil uint64 // first cycle the data bus is free
	busLastRank  int
	busLastWrite bool
	busUsed      bool

	cmdThisCycle bool

	// Monotone version counters for the controller's cached scheduling
	// hints: stateVer bumps on every device-state mutation, busVer on every
	// data-bus occupation, per-bank and per-rank counters live in their
	// structs. Time passing is not a mutation — the engine's cached
	// constraint bounds stay valid until one of these moves.
	stateVer uint64
	busVer   uint32

	// openRanks counts ranks with at least one open bank (incrementally
	// maintained), so per-cycle background-power sampling is O(1).
	openRanks int

	// refreshWake is a lower bound on the next cycle the refresh engine
	// could act; Tick skips the per-rank refresh scan before it.
	refreshWake uint64

	// san is the build-tag-gated protocol sanitizer (see sanitize_on.go);
	// zero-size with no-op methods unless built with -tags invariants.
	san sanState

	// tr observes the command stream when attached (nil = tracing off;
	// every emit is then an inlined nil check). chIdx labels events with
	// this channel's index in the controller.
	tr    *trace.Tracer
	chIdx int
}

// NewChannel builds a channel with the given timing and organization.
// Timing must validate.
func NewChannel(t Timing, ranks, banksPerRank int) (*Channel, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if ranks < 1 || banksPerRank < 1 {
		return nil, fmt.Errorf("dram: need at least one rank and bank (got %d, %d)", ranks, banksPerRank)
	}
	c := &Channel{T: t, busLastRank: -1}
	c.ranks = make([]rank, ranks)
	for i := range c.ranks {
		c.ranks[i].banks = make([]bank, banksPerRank)
		if t.TREFI > 0 {
			// Stagger rank refreshes to avoid lock-step channel stalls.
			c.ranks[i].nextRefresh = uint64(t.TREFI) + uint64(i*t.TREFI/ranks)
		}
	}
	c.refreshWake = NoEvent
	for i := range c.ranks {
		if t.TREFI > 0 && c.ranks[i].nextRefresh < c.refreshWake {
			c.refreshWake = c.ranks[i].nextRefresh
		}
	}
	return c, nil
}

// SetTracer attaches (or, with nil, detaches) a command-stream tracer.
// chIdx is the channel's index in the controller, used to label events.
func (c *Channel) SetTracer(tr *trace.Tracer, chIdx int) {
	c.tr = tr
	c.chIdx = chIdx
}

// Ranks returns the number of ranks on the channel.
func (c *Channel) Ranks() int { return len(c.ranks) }

// Banks returns the number of banks per rank.
func (c *Channel) Banks() int { return len(c.ranks[0].banks) }

// Now returns the current cycle as last set by Tick.
func (c *Channel) Now() uint64 { return c.now }

// Tick advances the channel to the given cycle and runs the refresh engine.
// It returns true when the refresh engine consumed this cycle's command
// slot (the controller must not issue a command this cycle).
//
// Refresh is all-bank auto-refresh per rank: when a rank's tREFI deadline
// passes, the engine blocks new activates to the rank, closes any open
// banks by issuing precharges itself (one command per cycle), and then
// holds the rank busy for tRFC. Afterwards every bank is precharged, which
// is why most row-empty accesses trail refreshes (paper Section 5.2).
//
//burstmem:hotpath
func (c *Channel) Tick(now uint64) bool {
	c.now = now
	c.cmdThisCycle = false
	c.Stats.ActiveRankCycles += uint64(c.openRanks)
	if c.T.TREFI == 0 || now < c.refreshWake {
		return false
	}
	for r := range c.ranks {
		rk := &c.ranks[r]
		if rk.refreshUntil > now || now < rk.nextRefresh {
			continue
		}
		// Refresh due. Close open banks first.
		allClosed := true
		for b := range rk.banks {
			bk := &rk.banks[b]
			if !bk.open {
				continue
			}
			allClosed = false
			if now >= bk.nextPrecharge && !c.cmdThisCycle {
				c.issuePrecharge(r, b)
				c.cmdThisCycle = true
			}
		}
		if allClosed && !c.cmdThisCycle {
			c.san.refresh(c, r, now)
			rk.refreshUntil = now + uint64(c.T.TRFC)
			rk.nextRefresh += uint64(c.T.TREFI)
			rk.ver++
			c.stateVer++
			c.Stats.Refreshes++
			c.Stats.Commands++
			c.cmdThisCycle = true
			c.tr.Command(now, trace.EvRefresh, c.chIdx, r, 0, 0, 0, 0)
		}
	}
	// Recompute the wake bound: a due rank keeps the engine active every
	// cycle until its refresh starts; otherwise nothing happens before the
	// earliest tREFI deadline.
	wake := NoEvent
	for r := range c.ranks {
		rk := &c.ranks[r]
		if rk.refreshUntil <= now && rk.nextRefresh <= now {
			wake = now + 1
			break
		}
		if rk.nextRefresh < wake {
			wake = rk.nextRefresh
		}
	}
	c.refreshWake = wake
	return c.cmdThisCycle
}

// CommandSlotFree reports whether the controller may issue a command this
// cycle (the refresh engine may have consumed the slot during Tick).
func (c *Channel) CommandSlotFree() bool { return !c.cmdThisCycle }

// NoEvent is the "no scheduled event" sentinel returned by the next-event
// queries used for idle-cycle skipping.
const NoEvent = ^uint64(0)

// NextEventCycle returns the next cycle at which the channel's refresh
// engine will act on its own (close banks or start a refresh), or NoEvent.
// It returns now+1 while a refresh is due and draining, because the engine
// may issue a precharge on any coming cycle; command-blocking effects of an
// in-progress refresh (refreshUntil) are accounted per command by
// EarliestIssue instead.
//
//burstmem:hotpath
func (c *Channel) NextEventCycle(now uint64) uint64 {
	if c.T.TREFI == 0 {
		return NoEvent
	}
	next := NoEvent
	for r := range c.ranks {
		rk := &c.ranks[r]
		if rk.refreshUntil <= now && rk.nextRefresh <= now {
			return now + 1 // refresh due: the engine is actively draining
		}
		if rk.nextRefresh > now && rk.nextRefresh < next {
			next = rk.nextRefresh
		}
	}
	return next
}

// EarliestIssue returns the earliest cycle >= now+1 at which the command
// could satisfy CanIssue, assuming device state stays frozen until then (no
// other commands issue and no refresh starts — the skip logic guarantees
// both by also waking at NextEventCycle). The cmdThisCycle slot is ignored:
// the caller only asks about future cycles.
//
//burstmem:hotpath
func (c *Channel) EarliestIssue(cmd Cmd, t Target) uint64 {
	at := maxU64(c.now+1, c.EarliestReady(cmd, t))
	return maxU64(at, c.ColumnBusReady(cmd, t.Rank))
}

// EarliestReady returns the first cycle at which the command's bank and
// rank timing constraints hold (including an in-progress refresh), with no
// current-cycle floor and no data-bus term. The value depends only on state
// covered by the target's bank version and rank version, never on c.now, so
// the controller engine can cache it until one of those versions moves.
//
//burstmem:hotpath
func (c *Channel) EarliestReady(cmd Cmd, t Target) uint64 {
	rk := &c.ranks[t.Rank]
	bk := &rk.banks[t.Bank]
	at := rk.refreshUntil
	switch cmd {
	case CmdPrecharge:
		at = maxU64(at, bk.nextPrecharge)
	case CmdActivate:
		at = maxU64(at, bk.nextActivate)
		if c.T.TRRD > 0 && rk.lastActivate > 0 {
			// CanIssue at cycle x requires x+1 >= lastActivate+tRRD.
			at = maxU64(at, rk.lastActivate+uint64(c.T.TRRD)-1)
		}
		if c.T.TFAW > 0 {
			if oldest := rk.actWindow[rk.actIdx]; oldest > 0 {
				at = maxU64(at, oldest+uint64(c.T.TFAW)-1)
			}
		}
	case CmdRead:
		at = maxU64(at, bk.nextRead)
		if c.T.TWTR > 0 && rk.writeDataEnd > 0 {
			at = maxU64(at, rk.writeDataEnd+uint64(c.T.TWTR))
		}
	case CmdWrite:
		at = maxU64(at, bk.nextWrite)
	case CmdRefresh:
		// Refresh is issued by the channel's own engine on its tREFI
		// schedule; the controller never asks when it could issue one.
	}
	return at
}

// ColumnBusReady returns the first cycle the data bus lets the column
// command launch for the rank (0 when unconstrained; non-column commands
// are never bus-constrained). The value depends only on data-bus state, so
// it can be cached against the channel's bus version.
//
//burstmem:hotpath
func (c *Channel) ColumnBusReady(cmd Cmd, rankIdx int) uint64 {
	switch cmd {
	case CmdRead:
		if need, busy := c.busNeed(rankIdx, false); busy && need > uint64(c.T.TCL) {
			return need - uint64(c.T.TCL)
		}
	case CmdWrite:
		if need, busy := c.busNeed(rankIdx, true); busy && need > uint64(c.T.TCWD) {
			return need - uint64(c.T.TCWD)
		}
	case CmdPrecharge, CmdActivate, CmdRefresh:
		// Row commands and refreshes never touch the data bus.
	}
	return 0
}

// StateVersion returns a counter that increments on every device-state
// mutation (command issue, auto-precharge, refresh start). While it is
// unchanged — and only commands the caller itself issues could change it —
// every cached EarliestReady/ColumnBusReady bound remains exact.
//
//burstmem:hotpath
func (c *Channel) StateVersion() uint64 { return c.stateVer }

// BankVersion returns the bank's mutation counter (see StateVersion).
//
//burstmem:hotpath
func (c *Channel) BankVersion(rankIdx, bankIdx int) uint32 {
	return c.ranks[rankIdx].banks[bankIdx].ver
}

// RankVersion returns the rank's mutation counter (see StateVersion).
//
//burstmem:hotpath
func (c *Channel) RankVersion(rankIdx int) uint32 { return c.ranks[rankIdx].ver }

// BusVersion returns the data-bus mutation counter (see StateVersion).
//
//burstmem:hotpath
func (c *Channel) BusVersion() uint32 { return c.busVer }

// busNeed returns the first cycle the data bus could start a new transfer
// for the rank (including turnaround gaps), and whether the bus has been
// used at all.
//
//burstmem:hotpath
func (c *Channel) busNeed(rankIdx int, isWrite bool) (uint64, bool) {
	if !c.busUsed {
		return 0, false
	}
	need := c.busBusyUntil
	if rankIdx != c.busLastRank {
		need += uint64(c.T.TRTRS)
	} else if !c.busLastWrite && isWrite {
		need += uint64(c.T.TRTW)
	}
	return need, true
}

// AccountSkipped attributes k skipped idle cycles to the per-cycle sampled
// channel statistics (bank state cannot change during a skip, so the sample
// is constant).
//
//burstmem:hotpath
func (c *Channel) AccountSkipped(k uint64) {
	c.Stats.ActiveRankCycles += k * uint64(c.openRanks)
}

// OpenRow returns the open row of a bank, if any.
func (c *Channel) OpenRow(rankIdx, bankIdx int) (uint32, bool) {
	b := &c.ranks[rankIdx].banks[bankIdx]
	return b.row, b.open
}

// Classify reports the row outcome an access to (rank, bank, row) would see
// in the current bank state.
//
//burstmem:hotpath
func (c *Channel) Classify(t Target) RowOutcome {
	b := &c.ranks[t.Rank].banks[t.Bank]
	switch {
	case !b.open:
		return RowEmpty
	case b.row == t.Row:
		return RowHit
	default:
		return RowConflict
	}
}

// NextCommand returns the command an access to the target needs next, given
// current bank state: CmdPrecharge for a row conflict, CmdActivate for a
// closed bank, or the column command itself (read=true selects CmdRead).
//
//burstmem:hotpath
func (c *Channel) NextCommand(t Target, read bool) Cmd {
	switch c.Classify(t) {
	case RowConflict:
		return CmdPrecharge
	case RowEmpty:
		return CmdActivate
	case RowHit:
		if read {
			return CmdRead
		}
		return CmdWrite
	}
	panic("dram: unreachable row outcome in NextCommand")
}

// refreshBlocked reports whether commands to the rank are blocked by an
// in-progress or pending refresh. Precharges stay allowed while a refresh
// is pending so the rank can drain.
//
//burstmem:hotpath
func (c *Channel) refreshBlocked(rankIdx int, cmd Cmd) bool {
	rk := &c.ranks[rankIdx]
	if rk.refreshUntil > c.now {
		return true
	}
	if c.T.TREFI > 0 && c.now >= rk.nextRefresh && cmd == CmdActivate {
		return true
	}
	return false
}

// CanIssue reports whether the command is unblocked at the current cycle:
// all bank, rank and bus timing constraints are met and the command slot is
// free.
//
//burstmem:hotpath
func (c *Channel) CanIssue(cmd Cmd, t Target) bool {
	if c.cmdThisCycle {
		return false
	}
	if t.Rank < 0 || t.Rank >= len(c.ranks) || t.Bank < 0 || t.Bank >= len(c.ranks[t.Rank].banks) {
		return false
	}
	if c.refreshBlocked(t.Rank, cmd) {
		return false
	}
	rk := &c.ranks[t.Rank]
	bk := &rk.banks[t.Bank]
	now := c.now
	switch cmd {
	case CmdPrecharge:
		return bk.open && now >= bk.nextPrecharge
	case CmdActivate:
		if bk.open || now < bk.nextActivate {
			return false
		}
		if c.T.TRRD > 0 && rk.lastActivate > 0 && now+1 < rk.lastActivate+uint64(c.T.TRRD) {
			return false
		}
		if c.T.TFAW > 0 {
			oldest := rk.actWindow[rk.actIdx]
			if oldest > 0 && now+1 < oldest+uint64(c.T.TFAW) {
				return false
			}
		}
		return true
	case CmdRead:
		if !bk.open || bk.row != t.Row || now < bk.nextRead {
			return false
		}
		// Same-rank write-to-read turnaround (tWTR) is measured from
		// the last write data beat to the read command.
		if c.T.TWTR > 0 && rk.writeDataEnd > 0 && now < rk.writeDataEnd+uint64(c.T.TWTR) {
			return false
		}
		return c.busAvailable(t.Rank, false, now+uint64(c.T.TCL))
	case CmdWrite:
		if !bk.open || bk.row != t.Row || now < bk.nextWrite {
			return false
		}
		return c.busAvailable(t.Rank, true, now+uint64(c.T.TCWD))
	case CmdRefresh:
		// Only the channel's refresh engine issues refreshes.
		return false
	}
	return false
}

// busAvailable checks data-bus occupancy and turnaround gaps for a transfer
// that would start at dataStart.
//
//burstmem:hotpath
func (c *Channel) busAvailable(rankIdx int, isWrite bool, dataStart uint64) bool {
	if !c.busUsed {
		return true
	}
	need := c.busBusyUntil
	if rankIdx != c.busLastRank {
		need += uint64(c.T.TRTRS)
	} else if !c.busLastWrite && isWrite {
		// read -> write on the same rank still turns the bus around
		need += uint64(c.T.TRTW)
	}
	return dataStart >= need
}

// IssueResult describes the effect of an issued command.
type IssueResult struct {
	Cmd       Cmd
	DataStart uint64 // first data-bus cycle (column commands only)
	DataEnd   uint64 // first cycle after the last data beat
	Outcome   RowOutcome
}

// Issue executes an unblocked command, updating all device state. It
// panics if the command is blocked: the controller must gate on CanIssue.
// For column commands, autoPrecharge closes the bank automatically after
// the access (the Close Page Autoprecharge controller policy).
//
//burstmem:hotpath
func (c *Channel) Issue(cmd Cmd, t Target, autoPrecharge bool) IssueResult {
	if !c.CanIssue(cmd, t) {
		panic(fmt.Sprintf("dram: Issue of blocked command %v %+v at cycle %d", cmd, t, c.now))
	}
	c.san.checkIssue(c, cmd, t, c.now)
	c.cmdThisCycle = true
	c.Stats.Commands++
	rk := &c.ranks[t.Rank]
	bk := &rk.banks[t.Bank]
	now := c.now
	res := IssueResult{Cmd: cmd, Outcome: c.Classify(t)}
	switch cmd {
	case CmdPrecharge:
		c.issuePrecharge(t.Rank, t.Bank)
	case CmdActivate:
		c.Stats.Activates++
		c.tr.Command(now, trace.EvActivate, c.chIdx, t.Rank, t.Bank, t.Row, 0, 0)
		bk.open = true
		bk.ver++
		rk.ver++
		c.stateVer++
		if rk.openBanks++; rk.openBanks == 1 {
			c.openRanks++
		}
		bk.row = t.Row
		bk.nextRead = now + uint64(c.T.TRCD)
		bk.nextWrite = now + uint64(c.T.TRCD)
		bk.nextPrecharge = maxU64(bk.nextPrecharge, now+uint64(c.T.TRAS))
		bk.nextActivate = maxU64(bk.nextActivate, now+uint64(c.T.TRC))
		rk.lastActivate = now + 1
		if c.T.TFAW > 0 {
			rk.actWindow[rk.actIdx] = now + 1
			rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
		}
	case CmdRead:
		c.Stats.Reads++
		res.DataStart = now + uint64(c.T.TCL)
		res.DataEnd = res.DataStart + uint64(c.T.DataCycles())
		c.tr.Command(now, trace.EvRead, c.chIdx, t.Rank, t.Bank, t.Row, res.DataStart, res.DataEnd)
		c.occupyBus(t.Rank, false, res)
		bk.ver++
		c.stateVer++
		gap := uint64(c.T.DataCycles())
		bk.nextRead = now + gap
		bk.nextWrite = now + gap
		bk.nextPrecharge = maxU64(bk.nextPrecharge, now+uint64(c.T.TRTP)+gap)
		if autoPrecharge {
			c.autoClose(t.Rank, t.Bank, bk.nextPrecharge)
		}
	case CmdWrite:
		c.Stats.Writes++
		res.DataStart = now + uint64(c.T.TCWD)
		res.DataEnd = res.DataStart + uint64(c.T.DataCycles())
		c.tr.Command(now, trace.EvWrite, c.chIdx, t.Rank, t.Bank, t.Row, res.DataStart, res.DataEnd)
		c.occupyBus(t.Rank, true, res)
		rk.writeDataEnd = res.DataEnd
		bk.ver++
		rk.ver++
		c.stateVer++
		gap := uint64(c.T.DataCycles())
		bk.nextRead = now + gap
		bk.nextWrite = now + gap
		bk.nextPrecharge = maxU64(bk.nextPrecharge, res.DataEnd+uint64(c.T.TWR))
		if autoPrecharge {
			c.autoClose(t.Rank, t.Bank, bk.nextPrecharge)
		}
	default:
		panic(fmt.Sprintf("dram: cannot issue %v", cmd))
	}
	return res
}

// RecordOutcome counts an access-level row outcome for Figure 9 style
// statistics. Controllers call this exactly once per access, with the
// outcome observed when the access's first transaction issued (so a
// preempting read that finds a bank precharged by an interrupted write is
// counted as a row empty, as in the paper's Section 5.2).
func (c *Channel) RecordOutcome(o RowOutcome) {
	c.Stats.Outcomes[o]++
}

//burstmem:hotpath
func (c *Channel) issuePrecharge(rankIdx, bankIdx int) {
	c.san.precharge(c, rankIdx, bankIdx, c.now)
	bk := &c.ranks[rankIdx].banks[bankIdx]
	c.Stats.Precharges++
	c.tr.Command(c.now, trace.EvPrecharge, c.chIdx, rankIdx, bankIdx, bk.row, 0, 0)
	bk.open = false
	bk.nextActivate = maxU64(bk.nextActivate, c.now+uint64(c.T.TRP))
	bk.ver++
	c.stateVer++
	c.closeBankAccounting(rankIdx)
}

// autoClose models a column access with auto-precharge: the bank closes as
// soon as its precharge constraint allows, without an explicit command.
//
//burstmem:hotpath
func (c *Channel) autoClose(rankIdx, bankIdx int, preAt uint64) {
	c.san.autoPrecharge(c, rankIdx, bankIdx, preAt)
	bk := &c.ranks[rankIdx].banks[bankIdx]
	// Emitted at the issuing cycle (the stream must stay cycle-monotone);
	// the effective close cycle preAt rides in the data args.
	c.tr.Command(c.now, trace.EvAutoPrecharge, c.chIdx, rankIdx, bankIdx, bk.row, preAt, preAt)
	bk.open = false
	bk.nextActivate = maxU64(bk.nextActivate, preAt+uint64(c.T.TRP))
	bk.ver++
	c.stateVer++
	c.closeBankAccounting(rankIdx)
}

// closeBankAccounting updates the open-bank counters after a bank closes.
//
//burstmem:hotpath
func (c *Channel) closeBankAccounting(rankIdx int) {
	rk := &c.ranks[rankIdx]
	if rk.openBanks--; rk.openBanks == 0 {
		c.openRanks--
	}
}

//burstmem:hotpath
func (c *Channel) occupyBus(rankIdx int, isWrite bool, res IssueResult) {
	c.busBusyUntil = res.DataEnd
	c.busLastRank = rankIdx
	c.busLastWrite = isWrite
	c.busUsed = true
	c.busVer++
	c.stateVer++
	c.Stats.DataBusCycles += uint64(c.T.DataCycles())
}

// DataBusUtilization returns the fraction of cycles (0..1) the data bus was
// transferring over an elapsed-cycle window.
func (s Stats) DataBusUtilization(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(s.DataBusCycles) / float64(elapsed)
}

// AddressBusUtilization returns the fraction of cycles the command/address
// bus carried a command.
func (s Stats) AddressBusUtilization(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(s.Commands) / float64(elapsed)
}

// RowHitRate returns access-level {hit, empty, conflict} fractions.
func (s Stats) RowHitRate() (hit, empty, conflict float64) {
	total := s.Outcomes[RowHit] + s.Outcomes[RowEmpty] + s.Outcomes[RowConflict]
	if total == 0 {
		return 0, 0, 0
	}
	f := func(o RowOutcome) float64 { return float64(s.Outcomes[o]) / float64(total) }
	return f(RowHit), f(RowEmpty), f(RowConflict)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
