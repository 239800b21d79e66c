// Package sched implements the access scheduling mechanisms the paper
// compares burst scheduling against (Table 4):
//
//   - BkInOrder: conventional bank in-order scheduling — accesses within a
//     bank issue in arrival order, banks are served round robin.
//   - RowHit: the row-hit-first policy of Rixner et al. (ISCA'00) — a
//     unified queue per bank, oldest same-row access first, column
//     transactions preferred on the busses. Reads and writes are treated
//     equally.
//   - Intel: Intel's patented out-of-order scheduling (US 7,127,574) —
//     per-bank read queues and a single write queue, reads prioritized
//     over writes, and a started access runs to completion at highest
//     priority to limit the reordering degree.
//   - Intel_RP: Intel scheduling plus read preemption (not in the patent;
//     added by the paper for comparison).
//
// RowHit and Intel are "best effort" row-hit groupers: unlike burst
// scheduling's Table 2 transaction priority, neither accounts for DDR2
// rank-to-rank turnaround when picking among ready columns, so bubble
// cycles appear on the data bus (paper Section 4.2).
//
// Queues are intrusive per-bank lists (memctrl.BankQueues) with
// nonempty-bank bitmaps, so the steady-state arbitration path performs no
// allocation and no full rank×bank scans.
package sched

import (
	"math/bits"

	"burstmem/internal/memctrl"
	"burstmem/internal/trace"
)

// BkInOrder returns the conventional in-order baseline factory: accesses
// within a bank issue strictly in arrival order, banks take round-robin
// turns on the command bus, and transactions of different banks' accesses
// pipeline (precharges and activates overlap other banks' data transfers).
func BkInOrder() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism { return newBankInOrder(h, true) }
}

// InOrder returns the serial in-order scheduler: one access at a time,
// FIFO within a bank and banks round robin. It overlaps only the next
// access's precharge and activate with the current access's data tail, so
// it finishes paper Figure 1's four reads at cycle 22, not the figure's 28
// (examples/controller_trace; `experiments -exp fig1` replays the fully
// serial schedule on the device). It is not part of the paper's Table 4
// comparison (BkInOrder is the baseline there) but quantifies how much of
// the baseline's performance comes from bank pipelining alone
// (TestInOrderIsWorstCase in internal/sim).
func InOrder() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism { return newBankInOrder(h, false) }
}

// RowHit returns the row-hit-first mechanism factory.
func RowHit() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism { return newRowHit(h) }
}

// Intel returns the patent mechanism factory.
func Intel() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism { return newIntel(h, false) }
}

// IntelRP returns the patent mechanism with read preemption.
func IntelRP() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism { return newIntel(h, true) }
}

// bankInOrder: per-bank FIFO over reads and writes together; banks are
// served round robin. With pipelining (the Table 4 BkInOrder baseline),
// every bank may have an access in flight and their transactions
// interleave round robin; without it (the Figure 1(a) InOrder reference),
// a single access is serviced at a time with no overlap beyond the
// precharge/activate of the next access starting under the current data
// tail.
type bankInOrder struct {
	host      *memctrl.Host
	engine    *memctrl.Engine
	queues    *memctrl.BankQueues
	ranks     int
	banks     int
	pipelined bool
	// next is the round-robin cursor: the flattened bank index after the
	// last bank served (issued to when pipelined, installed when serial).
	next int

	curRank, curBank int // serial mode: the bank of the single in-service access
}

func newBankInOrder(h *memctrl.Host, pipelined bool) *bankInOrder {
	s := &bankInOrder{host: h, pipelined: pipelined}
	s.engine = memctrl.NewEngine(h, nil)
	ch := h.Channel()
	s.ranks, s.banks = ch.Ranks(), ch.Banks()
	s.queues = memctrl.NewBankQueues(s.ranks, s.banks)
	return s
}

// Name implements memctrl.Mechanism.
func (s *bankInOrder) Name() string {
	if s.pipelined {
		return "BkInOrder"
	}
	return "InOrder"
}

// ForwardsWrites implements memctrl.Mechanism: strictly in-order per bank,
// no bypassing, so no forwarding.
func (s *bankInOrder) ForwardsWrites() bool { return false }

// Pending implements memctrl.Mechanism.
func (s *bankInOrder) Pending() (int, int) { return s.host.Pending() }

// Enqueue implements memctrl.Mechanism.
func (s *bankInOrder) Enqueue(a *memctrl.Access, now uint64) { s.queues.PushBack(a) }

// Tick implements memctrl.Mechanism.
//
//burstmem:hotpath
func (s *bankInOrder) Tick(now uint64) {
	total := s.ranks * s.banks
	if s.pipelined {
		for r := 0; r < s.ranks; r++ {
			// Banks with queued work and a free ongoing slot.
			for m := s.queues.Mask(r) &^ s.engine.OccupiedMask(r); m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				s.engine.SetOngoing(r, b, s.queues.PopFront(r, b))
			}
		}
		// Issue one unblocked transaction, visiting banks in rotating
		// order so every bank gets an equal share of the command bus.
		cl, any := s.engine.Unblocked(now)
		if !any {
			return
		}
		for i := 0; i < total; i++ {
			idx := (s.next + i) % total
			r, b := idx/s.banks, idx%s.banks
			if cl.Rank(r)&(1<<uint(b)) != 0 {
				s.engine.Issue(r, b, now)
				s.next = idx + 1
				return
			}
		}
		return
	}
	if s.engine.Ongoing(s.curRank, s.curBank) == nil {
		// Round-robin bank selection, FIFO within the bank.
		for i := 0; i < total; i++ {
			idx := (s.next + i) % total
			r, b := idx/s.banks, idx%s.banks
			if s.queues.List(r, b).Empty() {
				continue
			}
			s.curRank, s.curBank = r, b
			s.engine.SetOngoing(r, b, s.queues.PopFront(r, b))
			s.next = idx + 1
			break
		}
		if s.engine.Ongoing(s.curRank, s.curBank) == nil {
			return
		}
	}
	if cl, any := s.engine.Unblocked(now); any && cl.Rank(s.curRank)&(1<<uint(s.curBank)) != 0 {
		s.engine.Issue(s.curRank, s.curBank, now)
	}
}

// rowHit: unified per-bank queues; oldest row-hit access first, else oldest
// access; column transactions take precedence on the busses.
type rowHit struct {
	host   *memctrl.Host
	engine *memctrl.Engine
	queues *memctrl.BankQueues
	ranks  int
}

func newRowHit(h *memctrl.Host) *rowHit {
	s := &rowHit{host: h}
	s.engine = memctrl.NewEngine(h, nil)
	ch := h.Channel()
	s.ranks = ch.Ranks()
	s.queues = memctrl.NewBankQueues(ch.Ranks(), ch.Banks())
	return s
}

// Name implements memctrl.Mechanism.
func (s *rowHit) Name() string { return "RowHit" }

// ForwardsWrites implements memctrl.Mechanism. RowHit treats reads and
// writes equally in one queue; same-line accesses are same-row, and the
// oldest-first row-hit rule preserves their order, so no forwarding is
// needed for correctness and none is modeled (matching Rixner's design).
func (s *rowHit) ForwardsWrites() bool { return false }

// Pending implements memctrl.Mechanism.
func (s *rowHit) Pending() (int, int) { return s.host.Pending() }

// Enqueue implements memctrl.Mechanism.
func (s *rowHit) Enqueue(a *memctrl.Access, now uint64) { s.queues.PushBack(a) }

// Tick implements memctrl.Mechanism. Transaction selection follows
// Rixner's column/precharge/activate manager precedence: among unblocked
// transactions, column accesses go first (oldest first), then precharges
// and activates — keeping the data bus busy while row operations overlap
// underneath.
//
//burstmem:hotpath
func (s *rowHit) Tick(now uint64) {
	ch := s.host.Channel()
	for r := 0; r < s.ranks; r++ {
		for m := s.queues.Mask(r) &^ s.engine.OccupiedMask(r); m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			q := s.queues.List(r, b)
			pick := q.Front()
			if row, open := ch.OpenRow(r, b); open {
				for a := q.Front(); a != nil; a = a.Next() {
					if a.Loc.Row == row {
						pick = a
						break
					}
				}
			}
			s.queues.Remove(pick)
			s.engine.SetOngoing(r, b, pick)
		}
	}
	cl, any := s.engine.Unblocked(now)
	if !any {
		return
	}
	// Column transactions beat row transactions; oldest access breaks
	// ties. The row classes are folded only when no column is unblocked,
	// and then over every rank.
	rank, bank := -1, -1
	for r := 0; r < s.ranks; r++ {
		rank, bank = s.engine.FoldOldest(r, cl.ColRead[r]|cl.ColWrite[r], rank, bank)
	}
	if rank < 0 {
		for r := 0; r < s.ranks; r++ {
			rank, bank = s.engine.FoldOldest(r, cl.RowRead[r]|cl.RowWrite[r], rank, bank)
		}
	}
	s.engine.Issue(rank, bank, now)
}

// intel: per-bank read queues (row-hit read first, else oldest), one write
// queue (held as per-bank FIFOs with a global occupancy view). Writes run
// only when the channel has no reads at all or the write queue is full. A
// started access has the highest transaction priority.
type intel struct {
	host       *memctrl.Host
	engine     *memctrl.Engine
	reads      *memctrl.BankQueues
	writes     *memctrl.BankQueues
	ranks      int
	preemption bool
}

func newIntel(h *memctrl.Host, preemption bool) *intel {
	s := &intel{host: h, preemption: preemption}
	s.engine = memctrl.NewEngine(h, nil)
	ch := h.Channel()
	s.ranks = ch.Ranks()
	s.reads = memctrl.NewBankQueues(ch.Ranks(), ch.Banks())
	s.writes = memctrl.NewBankQueues(ch.Ranks(), ch.Banks())
	return s
}

// Name implements memctrl.Mechanism.
func (s *intel) Name() string {
	if s.preemption {
		return "Intel_RP"
	}
	return "Intel"
}

// ForwardsWrites implements memctrl.Mechanism: reads bypass the write
// queue, so matching reads must be satisfied from it.
func (s *intel) ForwardsWrites() bool { return true }

// Pending implements memctrl.Mechanism.
func (s *intel) Pending() (int, int) { return s.host.Pending() }

// Enqueue implements memctrl.Mechanism.
func (s *intel) Enqueue(a *memctrl.Access, now uint64) {
	if a.Kind == memctrl.KindRead {
		s.reads.PushBack(a)
	} else {
		s.writes.PushBack(a)
	}
}

// Tick implements memctrl.Mechanism.
//
//burstmem:hotpath
func (s *intel) Tick(now uint64) {
	for r := 0; r < s.ranks; r++ {
		// Snapshot the occupied mask before installing: a bank gets
		// exactly one arbitration visit per tick (vacant banks install,
		// occupied banks check preemption), mirroring the single
		// arbitrate(r, b) call per bank of the scan-based arbiter.
		occ := s.engine.OccupiedMask(r)
		for m := (s.reads.Mask(r) | s.writes.Mask(r)) &^ occ; m != 0; m &= m - 1 {
			s.arbitrateVacant(r, bits.TrailingZeros64(m))
		}
		if s.preemption {
			for m := occ; m != 0; m &= m - 1 {
				s.arbitrateOngoing(r, bits.TrailingZeros64(m), now)
			}
		}
	}
	cl, any := s.engine.Unblocked(now)
	if !any {
		return
	}
	// Transaction selection: started accesses first (oldest first), then
	// unstarted (oldest first). No bus-timing awareness — the "best
	// effort" behaviour the paper contrasts with Table 2.
	sr, sb, ur, ub := -1, -1, -1, -1
	for r := 0; r < s.ranks; r++ {
		all := cl.Rank(r)
		var started uint64
		for m := all; m != 0; m &= m - 1 {
			if b := bits.TrailingZeros64(m); s.engine.Ongoing(r, b).Started() {
				started |= 1 << uint(b)
			}
		}
		sr, sb = s.engine.FoldOldest(r, started, sr, sb)
		ur, ub = s.engine.FoldOldest(r, all&^started, ur, ub)
	}
	if sr >= 0 {
		ur, ub = sr, sb
	}
	s.engine.Issue(ur, ub, now)
}

// arbitrateVacant picks the bank's next ongoing access when no access is
// in flight there.
//
//burstmem:hotpath
func (s *intel) arbitrateVacant(r, b int) {
	switch reads, _ := s.host.Pending(); {
	case s.host.WriteQueueFull() && !s.writes.List(r, b).Empty():
		// Drain the oldest write that no queued read still wants
		// (WAR guard; younger same-line reads were forwarded).
		if w := s.oldestSafeWrite(r, b); w != nil {
			s.installWrite(r, b, w)
		} else if !s.reads.List(r, b).Empty() {
			// Every write is behind a queued read; drain reads.
			s.installRead(r, b)
		}
	case !s.reads.List(r, b).Empty():
		s.installRead(r, b)
	case !s.writes.List(r, b).Empty() && reads == 0:
		// Writes are postponed until the channel has no reads
		// at all (minimizing read latency, per the patent).
		s.installWrite(r, b, s.writes.List(r, b).Front())
	}
}

// arbitrateOngoing handles read preemption of an in-flight write.
//
//burstmem:hotpath
func (s *intel) arbitrateOngoing(r, b int, now uint64) {
	ongoing := s.engine.Ongoing(r, b)
	if ongoing.Kind == memctrl.KindWrite && !s.reads.List(r, b).Empty() && !s.host.WriteQueueFull() {
		// Read preemption: push the write back and start the read.
		s.engine.ClearOngoing(r, b)
		s.writes.PushFront(ongoing)
		s.host.Tracer().Mark(now, trace.EvPreempt, s.host.ChannelIndex(),
			r, b, ongoing.Loc.Row, ongoing.ID, 0)
		s.installRead(r, b)
	}
}

// installRead picks the oldest row-hit read if the bank row is open, else
// the oldest read.
//
//burstmem:hotpath
func (s *intel) installRead(r, b int) {
	q := s.reads.List(r, b)
	pick := q.Front()
	if row, open := s.host.Channel().OpenRow(r, b); open {
		for a := q.Front(); a != nil; a = a.Next() {
			if a.Loc.Row == row {
				pick = a
				break
			}
		}
	}
	s.reads.Remove(pick)
	s.engine.SetOngoing(r, b, pick)
}

//burstmem:hotpath
func (s *intel) installWrite(r, b int, w *memctrl.Access) {
	s.writes.Remove(w)
	s.engine.SetOngoing(r, b, w)
}

// oldestSafeWrite returns the oldest write whose line no queued read
// targets, or nil.
//
//burstmem:hotpath
func (s *intel) oldestSafeWrite(r, b int) *memctrl.Access {
	lineBytes := s.host.Config().Geometry.LineBytes
	for w := s.writes.List(r, b).Front(); w != nil; w = w.Next() {
		line := w.LineAddr(lineBytes)
		hazard := false
		for rd := s.reads.List(r, b).Front(); rd != nil; rd = rd.Next() {
			if rd.LineAddr(lineBytes) == line {
				hazard = true
				break
			}
		}
		if !hazard {
			return w
		}
	}
	return nil
}

// NextEventCycle implements memctrl.EventHinter. None of the baseline
// mechanisms have internal timers: with no submissions or completions, the
// only thing that can happen is an ongoing access's next transaction
// becoming issuable, which the engine bounds.
//
//burstmem:hotpath
func (s *bankInOrder) NextEventCycle(now uint64) uint64 { return s.engine.NextEventCycle(now) }

// NextEventCycle implements memctrl.EventHinter.
//
//burstmem:hotpath
func (s *rowHit) NextEventCycle(now uint64) uint64 { return s.engine.NextEventCycle(now) }

// NextEventCycle implements memctrl.EventHinter. Read preemption needs no
// extra hint: it triggers only on state that submissions and completions
// change, both of which already wake the controller.
//
//burstmem:hotpath
func (s *intel) NextEventCycle(now uint64) uint64 { return s.engine.NextEventCycle(now) }

var (
	_ memctrl.Mechanism   = (*bankInOrder)(nil)
	_ memctrl.Mechanism   = (*rowHit)(nil)
	_ memctrl.Mechanism   = (*intel)(nil)
	_ memctrl.EventHinter = (*bankInOrder)(nil)
	_ memctrl.EventHinter = (*rowHit)(nil)
	_ memctrl.EventHinter = (*intel)(nil)
)
