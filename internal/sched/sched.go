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
// Queues are intrusive per-bank lists (memctrl.BankQueues) with one
// nonempty-bank bitmap per channel, so the steady-state arbitration path
// performs no allocation and no full rank×bank scans.
package sched

import (
	"math/bits"

	"burstmem/internal/dram"
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
	pipelined bool
	// next is the round-robin cursor: the flat bank index after the last
	// bank served (issued to when pipelined, installed when serial).
	next int
	cur  int // serial mode: the flat bank of the single in-service access
}

func newBankInOrder(h *memctrl.Host, pipelined bool) *bankInOrder {
	s := &bankInOrder{host: h, pipelined: pipelined}
	s.engine = memctrl.NewEngine(h, nil)
	s.queues = memctrl.NewBankQueues(h.Channel())
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
	if s.pipelined {
		// Banks with queued work and a free ongoing slot.
		for m := s.queues.Mask() &^ s.engine.OccupiedMask(); m != 0; m &= m - 1 {
			s.engine.SetOngoing(s.queues.PopFront(bits.TrailingZeros64(m)))
		}
		// Issue one unblocked transaction, visiting banks in rotating
		// order so every bank gets an equal share of the command bus.
		if cl, any := s.engine.Unblocked(now); any {
			f := roundRobin(cl.All(), s.next)
			s.engine.Issue(f, now)
			s.next = f + 1
		}
		return
	}
	if s.engine.Ongoing(s.cur) == nil {
		// Round-robin bank selection, FIFO within the bank.
		if s.queues.Mask() == 0 {
			return
		}
		s.cur = roundRobin(s.queues.Mask(), s.next)
		s.engine.SetOngoing(s.queues.PopFront(s.cur))
		s.next = s.cur + 1
	}
	if cl, any := s.engine.Unblocked(now); any && cl.All()&(1<<uint(s.cur)) != 0 {
		s.engine.Issue(s.cur, now)
	}
}

// roundRobin returns the first bank of a nonempty mask at or after the
// cursor, else the first bank of the mask.
//
//burstmem:hotpath
func roundRobin(mask uint64, cursor int) int {
	if m := mask &^ (1<<uint(cursor) - 1); m != 0 {
		return bits.TrailingZeros64(m)
	}
	return bits.TrailingZeros64(mask)
}

// rowHit: unified per-bank queues; oldest row-hit access first, else oldest
// access; column transactions take precedence on the busses.
type rowHit struct {
	host   *memctrl.Host
	engine *memctrl.Engine
	queues *memctrl.BankQueues
}

func newRowHit(h *memctrl.Host) *rowHit {
	s := &rowHit{host: h}
	s.engine = memctrl.NewEngine(h, nil)
	s.queues = memctrl.NewBankQueues(h.Channel())
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
	for m := s.queues.Mask() &^ s.engine.OccupiedMask(); m != 0; m &= m - 1 {
		q := s.queues.List(bits.TrailingZeros64(m))
		pick := rowHitFirst(s.host.Channel(), q)
		s.queues.Remove(pick)
		s.engine.SetOngoing(pick)
	}
	cl, any := s.engine.Unblocked(now)
	if !any {
		return
	}
	// Column transactions beat row transactions; oldest access breaks
	// ties. The row classes are folded only when no column is unblocked.
	f := s.engine.FoldOldest(cl.ColRead|cl.ColWrite, -1)
	if f < 0 {
		f = s.engine.FoldOldest(cl.RowRead|cl.RowWrite, -1)
	}
	s.engine.Issue(f, now)
}

// rowHitFirst returns the oldest access of a nonempty bank queue to the
// bank's open row, else the oldest access.
//
//burstmem:hotpath
func rowHitFirst(ch *dram.Channel, q *memctrl.AccessList) *memctrl.Access {
	head := q.Front()
	if row, open := ch.OpenRow(int(head.Loc.Rank), int(head.Loc.Bank)); open {
		for a := head; a != nil; a = a.Next() {
			if a.Loc.Row == row {
				return a
			}
		}
	}
	return head
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
	preemption bool
}

func newIntel(h *memctrl.Host, preemption bool) *intel {
	s := &intel{host: h, preemption: preemption}
	s.engine = memctrl.NewEngine(h, nil)
	s.reads = memctrl.NewBankQueues(h.Channel())
	s.writes = memctrl.NewBankQueues(h.Channel())
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

// Tick implements memctrl.Mechanism. Like burst scheduling's, it visits
// each bank at most once: vacant banks install, then (with preemption)
// the banks occupied before that pass check for a read to preempt their
// write. Only the second pass emits trace marks.
//
//burstmem:hotpath
func (s *intel) Tick(now uint64) {
	occ := s.engine.OccupiedMask()
	for m := (s.reads.Mask() | s.writes.Mask()) &^ occ; m != 0; m &= m - 1 {
		s.arbitrateVacant(bits.TrailingZeros64(m))
	}
	if s.preemption {
		for m := occ; m != 0; m &= m - 1 {
			s.arbitrateOngoing(bits.TrailingZeros64(m), now)
		}
	}
	cl, any := s.engine.Unblocked(now)
	if !any {
		return
	}
	// Transaction selection: started accesses first (oldest first), then
	// unstarted (oldest first). No bus-timing awareness — the "best
	// effort" behaviour the paper contrasts with Table 2.
	var started uint64
	for m := cl.All(); m != 0; m &= m - 1 {
		if f := bits.TrailingZeros64(m); s.engine.Ongoing(f).Started() {
			started |= 1 << uint(f)
		}
	}
	f := s.engine.FoldOldest(started, -1)
	if f < 0 {
		f = s.engine.FoldOldest(cl.All(), -1)
	}
	s.engine.Issue(f, now)
}

// arbitrateVacant picks bank f's next ongoing access when no access is in
// flight there.
//
//burstmem:hotpath
func (s *intel) arbitrateVacant(f int) {
	switch reads, _ := s.host.Pending(); {
	case s.host.WriteQueueFull() && !s.writes.List(f).Empty():
		// Drain the oldest write that no queued read still wants
		// (WAR guard; younger same-line reads were forwarded).
		if w := s.oldestSafeWrite(f); w != nil {
			s.installWrite(w)
		} else if !s.reads.List(f).Empty() {
			// Every write is behind a queued read; drain reads.
			s.installRead(f)
		}
	case !s.reads.List(f).Empty():
		s.installRead(f)
	case !s.writes.List(f).Empty() && reads == 0:
		// Writes are postponed until the channel has no reads
		// at all (minimizing read latency, per the patent).
		s.installWrite(s.writes.List(f).Front())
	}
}

// arbitrateOngoing handles read preemption of bank f's in-flight write.
//
//burstmem:hotpath
func (s *intel) arbitrateOngoing(f int, now uint64) {
	ongoing := s.engine.Ongoing(f)
	if ongoing.Kind == memctrl.KindWrite && !s.reads.List(f).Empty() && !s.host.WriteQueueFull() {
		// Read preemption: push the write back and start the read.
		s.engine.ClearOngoing(f)
		s.writes.PushFront(ongoing)
		s.host.Tracer().Mark(now, trace.EvPreempt, s.host.ChannelIndex(),
			int(ongoing.Loc.Rank), int(ongoing.Loc.Bank), ongoing.Loc.Row, ongoing.ID, 0)
		s.installRead(f)
	}
}

// installRead picks the oldest row-hit read if the bank row is open, else
// the oldest read.
//
//burstmem:hotpath
func (s *intel) installRead(f int) {
	pick := rowHitFirst(s.host.Channel(), s.reads.List(f))
	s.reads.Remove(pick)
	s.engine.SetOngoing(pick)
}

//burstmem:hotpath
func (s *intel) installWrite(w *memctrl.Access) {
	s.writes.Remove(w)
	s.engine.SetOngoing(w)
}

// oldestSafeWrite returns bank f's oldest write whose line no queued read
// targets, or nil.
//
//burstmem:hotpath
func (s *intel) oldestSafeWrite(f int) *memctrl.Access {
	lineBytes := s.host.Config().Geometry.LineBytes
	for w := s.writes.List(f).Front(); w != nil; w = w.Next() {
		line := w.LineAddr(lineBytes)
		hazard := false
		for rd := s.reads.List(f).Front(); rd != nil; rd = rd.Next() {
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
