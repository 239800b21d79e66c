//go:build invariants

package dram

import "fmt"

// This file is the enabled build of the DDR2 protocol sanitizer (build with
// -tags invariants). It maintains a shadow copy of every per-bank and
// per-rank earliest-issue constraint, derived only from the observed command
// stream and the Timing parameters — independent of the bank-state fields the
// scheduler consults. Every issued command is re-validated against the
// shadow; a mismatch means a timing-bookkeeping bug corrupted the primary
// state, and the sanitizer panics with a cycle-stamped description of the
// violated constraint.

// sanBank is the shadow per-bank state.
type sanBank struct {
	open bool
	row  uint32

	nextActivate  uint64 // tRP after precharge, tRC after activate
	nextPrecharge uint64 // tRAS after activate, tWR/tRTP after columns
	nextRead      uint64 // column-to-column gap
	nextWrite     uint64
	// rcdUntil is when tRCD expires after the last activate, kept apart
	// from the column-gap bounds so violations name the right constraint.
	rcdUntil uint64
}

// sanRank is the shadow per-rank state.
type sanRank struct {
	banks []sanBank

	lastActivate uint64 // cycle+1 of the last activate (tRRD; 0 = never)
	actWindow    [4]uint64
	actIdx       int

	writeDataEnd uint64 // last write data beat (tWTR)

	refreshUntil uint64 // rank busy refreshing until this cycle (tRFC)
	lastRefresh  uint64 // cycle+1 of the last refresh start (0 = never)
}

// sanRefreshSlack is how many tREFI intervals a rank may run past its
// refresh deadline before the sanitizer objects (DDR2 allows postponing up
// to eight refreshes, so nine intervals between refreshes is the limit).
const sanRefreshSlack = 9

// sanState is the enabled protocol sanitizer.
type sanState struct {
	ranks []sanRank

	busBusyUntil uint64
	busLastRank  int
	busLastWrite bool
	busUsed      bool
}

func (s *sanState) init(c *Channel) {
	if s.ranks != nil {
		return
	}
	s.ranks = make([]sanRank, len(c.ranks))
	for i := range s.ranks {
		s.ranks[i].banks = make([]sanBank, len(c.ranks[i].banks))
	}
	s.busLastRank = -1
}

func sanFail(now uint64, format string, args ...any) {
	panic(fmt.Sprintf("dram sanitizer: cycle %d: %s", now, fmt.Sprintf(format, args...)))
}

// checkIssue validates and records an activate or column command. Precharge
// and refresh have dedicated hooks because the refresh engine issues them
// outside Issue.
func (s *sanState) checkIssue(c *Channel, cmd Cmd, t Target, now uint64) {
	s.init(c)
	if cmd == CmdPrecharge || cmd == CmdRefresh {
		return
	}
	rk := &s.ranks[t.Rank]
	bk := &rk.banks[t.Bank]
	if now < rk.refreshUntil {
		sanFail(now, "%v to rank %d during refresh (rank busy until cycle %d, tRFC=%d)",
			cmd, t.Rank, rk.refreshUntil, c.T.TRFC)
	}
	switch cmd {
	case CmdActivate:
		if bk.open {
			sanFail(now, "ACT to rank %d bank %d with row %d already open",
				t.Rank, t.Bank, bk.row)
		}
		if now < bk.nextActivate {
			sanFail(now, "ACT to rank %d bank %d violates tRP/tRC: earliest legal cycle %d",
				t.Rank, t.Bank, bk.nextActivate)
		}
		if c.T.TRRD > 0 && rk.lastActivate > 0 && now+1 < rk.lastActivate+uint64(c.T.TRRD) {
			sanFail(now, "ACT to rank %d bank %d violates tRRD: last activate at cycle %d",
				t.Rank, t.Bank, rk.lastActivate-1)
		}
		if c.T.TFAW > 0 {
			if oldest := rk.actWindow[rk.actIdx]; oldest > 0 && now+1 < oldest+uint64(c.T.TFAW) {
				sanFail(now, "ACT to rank %d bank %d violates tFAW: fourth-last activate at cycle %d",
					t.Rank, t.Bank, oldest-1)
			}
		}
		bk.open = true
		bk.row = t.Row
		bk.rcdUntil = now + uint64(c.T.TRCD)
		bk.nextRead = now + uint64(c.T.TRCD)
		bk.nextWrite = now + uint64(c.T.TRCD)
		bk.nextPrecharge = max(bk.nextPrecharge, now+uint64(c.T.TRAS))
		bk.nextActivate = max(bk.nextActivate, now+uint64(c.T.TRC))
		rk.lastActivate = now + 1
		if c.T.TFAW > 0 {
			rk.actWindow[rk.actIdx] = now + 1
			rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
		}
	case CmdRead:
		if !bk.open {
			sanFail(now, "READ to rank %d bank %d with no row open (activate-before-read violated)",
				t.Rank, t.Bank)
		}
		if bk.row != t.Row {
			sanFail(now, "READ to rank %d bank %d row %d but row %d is open",
				t.Rank, t.Bank, t.Row, bk.row)
		}
		if now < bk.rcdUntil {
			sanFail(now, "READ to rank %d bank %d before tRCD expires: activate completes at cycle %d",
				t.Rank, t.Bank, bk.rcdUntil)
		}
		if now < bk.nextRead {
			sanFail(now, "READ to rank %d bank %d violates the column-to-column gap: earliest legal cycle %d",
				t.Rank, t.Bank, bk.nextRead)
		}
		if c.T.TWTR > 0 && rk.writeDataEnd > 0 && now < rk.writeDataEnd+uint64(c.T.TWTR) {
			sanFail(now, "READ to rank %d violates tWTR write-to-read turnaround: write data ended at cycle %d",
				t.Rank, rk.writeDataEnd)
		}
		s.checkBus(c, t.Rank, false, now+uint64(c.T.TCL), now)
		s.recordColumn(c, rk, bk, t.Rank, false, now)
	case CmdWrite:
		if !bk.open {
			sanFail(now, "WRITE to rank %d bank %d with no row open (activate-before-write violated)",
				t.Rank, t.Bank)
		}
		if bk.row != t.Row {
			sanFail(now, "WRITE to rank %d bank %d row %d but row %d is open",
				t.Rank, t.Bank, t.Row, bk.row)
		}
		if now < bk.rcdUntil {
			sanFail(now, "WRITE to rank %d bank %d before tRCD expires: activate completes at cycle %d",
				t.Rank, t.Bank, bk.rcdUntil)
		}
		if now < bk.nextWrite {
			sanFail(now, "WRITE to rank %d bank %d violates the column-to-column gap: earliest legal cycle %d",
				t.Rank, t.Bank, bk.nextWrite)
		}
		s.checkBus(c, t.Rank, true, now+uint64(c.T.TCWD), now)
		s.recordColumn(c, rk, bk, t.Rank, true, now)
	}
}

// checkBus validates data-bus exclusivity and turnaround gaps for a transfer
// starting at dataStart.
func (s *sanState) checkBus(c *Channel, rankIdx int, isWrite bool, dataStart, now uint64) {
	if !s.busUsed {
		return
	}
	if dataStart < s.busBusyUntil {
		sanFail(now, "data transfer starting at cycle %d overlaps the data bus, busy until cycle %d (exclusivity violated)",
			dataStart, s.busBusyUntil)
	}
	need := s.busBusyUntil
	switch {
	case rankIdx != s.busLastRank:
		need += uint64(c.T.TRTRS)
	case !s.busLastWrite && isWrite:
		need += uint64(c.T.TRTW)
	}
	if dataStart < need {
		sanFail(now, "data transfer starting at cycle %d violates the bus turnaround gap: earliest legal start %d",
			dataStart, need)
	}
}

// recordColumn updates the shadow for an issued column command.
func (s *sanState) recordColumn(c *Channel, rk *sanRank, bk *sanBank, rankIdx int, isWrite bool, now uint64) {
	gap := uint64(c.T.DataCycles())
	var dataStart uint64
	if isWrite {
		dataStart = now + uint64(c.T.TCWD)
	} else {
		dataStart = now + uint64(c.T.TCL)
	}
	dataEnd := dataStart + gap
	bk.nextRead = now + gap
	bk.nextWrite = now + gap
	if isWrite {
		rk.writeDataEnd = dataEnd
		bk.nextPrecharge = max(bk.nextPrecharge, dataEnd+uint64(c.T.TWR))
	} else {
		bk.nextPrecharge = max(bk.nextPrecharge, now+uint64(c.T.TRTP)+gap)
	}
	s.busBusyUntil = dataEnd
	s.busLastRank = rankIdx
	s.busLastWrite = isWrite
	s.busUsed = true
}

// precharge validates and records a precharge, whether issued by the
// controller (Issue) or by the refresh engine's drain (Tick).
func (s *sanState) precharge(c *Channel, rankIdx, bankIdx int, now uint64) {
	s.init(c)
	bk := &s.ranks[rankIdx].banks[bankIdx]
	if !bk.open {
		sanFail(now, "PRE to rank %d bank %d which has no open row", rankIdx, bankIdx)
	}
	if now < bk.nextPrecharge {
		sanFail(now, "PRE to rank %d bank %d violates tRAS/tWR/tRTP: earliest legal cycle %d",
			rankIdx, bankIdx, bk.nextPrecharge)
	}
	bk.open = false
	bk.nextActivate = max(bk.nextActivate, now+uint64(c.T.TRP))
}

// autoPrecharge records the implicit bank closure of a column access with
// auto-precharge, effective at preAt.
func (s *sanState) autoPrecharge(c *Channel, rankIdx, bankIdx int, preAt uint64) {
	s.init(c)
	bk := &s.ranks[rankIdx].banks[bankIdx]
	bk.open = false
	bk.nextActivate = max(bk.nextActivate, preAt+uint64(c.T.TRP))
}

// refresh validates and records an all-bank auto-refresh starting now.
func (s *sanState) refresh(c *Channel, rankIdx int, now uint64) {
	s.init(c)
	rk := &s.ranks[rankIdx]
	for b := range rk.banks {
		if rk.banks[b].open {
			sanFail(now, "REF to rank %d with bank %d still open (all banks must be precharged)",
				rankIdx, b)
		}
	}
	if now < rk.refreshUntil {
		sanFail(now, "REF to rank %d during refresh (rank busy until cycle %d)", rankIdx, rk.refreshUntil)
	}
	if c.T.TREFI > 0 && rk.lastRefresh > 0 {
		if limit := uint64(c.T.TREFI) * sanRefreshSlack; now-(rk.lastRefresh-1) > limit {
			sanFail(now, "refresh interval violated on rank %d: last refresh at cycle %d, more than %d*tREFI ago",
				rankIdx, rk.lastRefresh-1, sanRefreshSlack)
		}
	}
	rk.lastRefresh = now + 1
	rk.refreshUntil = now + uint64(c.T.TRFC)
}
