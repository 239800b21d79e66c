// Package core implements the paper's primary contribution: the burst
// scheduling access reordering mechanism (Section 3).
//
// Burst scheduling is a two-level scheduler. At the access level, per-bank
// arbiters cluster reads to the same row of the same bank into bursts and
// decide when writes may run (never before reads, except when the write
// queue fills, when piggybacking after a burst, or when there is nothing
// else to do). At the transaction level, a global per-channel transaction
// scheduler picks one unblocked SDRAM transaction per cycle using the
// static priority of paper Table 2, which keeps row hits back to back on
// the data bus while overlapping precharges and activates underneath.
//
// Two options are controlled by a static threshold on write-queue
// occupancy (Section 3.2): read preemption below the threshold, write
// piggybacking above it. The paper's Burst, Burst_RP, Burst_WP and
// Burst_TH(52) variants are all configurations of the one mechanism here.
package core

import (
	"fmt"
	"math/bits"

	"burstmem/internal/dram"
	"burstmem/internal/memctrl"
	"burstmem/internal/trace"
)

// Options selects a burst scheduling variant.
type Options struct {
	// ReadPreemption lets newly arrived reads interrupt an ongoing write
	// whose column transaction has not issued yet (the write restarts
	// later; correctness is unaffected).
	ReadPreemption bool
	// WritePiggyback appends qualified writes (same row) at the end of
	// bursts to exploit write row locality and avoid write queue
	// saturation.
	WritePiggyback bool
	// Threshold is the write-queue occupancy pivot: read preemption is
	// enabled while occupancy < Threshold, write piggybacking while
	// occupancy > Threshold. Only meaningful for the variant with both
	// options enabled (Burst_TH).
	Threshold int
	// NaivePriority replaces the Table 2 transaction priority with plain
	// oldest-first selection among unblocked transactions. It exists for
	// the ablation study quantifying how much of burst scheduling's win
	// comes from timing-aware transaction interleaving (the "bubble
	// cycles" the paper attributes to best-effort mechanisms).
	NaivePriority bool
	// LargestBurstFirst changes inter-burst order within a bank from
	// arrival order to largest-burst-first (the paper's Section 7 future
	// work), with StarvationLimit as the aging guard the paper calls
	// for: a burst whose first access has waited longer goes first
	// regardless of size.
	LargestBurstFirst bool
	// StarvationLimit is the age, in memory cycles, at which the oldest
	// burst overrides size order (0 picks a default).
	StarvationLimit uint64
}

// defaultStarvationLimit bounds how long a small burst can be bypassed by
// larger ones under LargestBurstFirst.
const defaultStarvationLimit = 2000

// Variant name constants as used in the paper's Table 4.
const (
	NameBurst   = "Burst"
	NameBurstRP = "Burst_RP"
	NameBurstWP = "Burst_WP"
	NameBurstTH = "Burst_TH"
)

// Burst returns a factory for plain burst scheduling: bursts plus the
// Table 2 transaction priority, no read preemption, no write piggybacking.
func Burst() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism {
		return newBurst(h, NameBurst, Options{})
	}
}

// BurstRP returns burst scheduling with read preemption (equivalent to a
// threshold of the full write-queue size; paper Section 5.4).
func BurstRP() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism {
		return newBurst(h, NameBurstRP, Options{
			ReadPreemption: true,
			Threshold:      h.Config().MaxWrites,
		})
	}
}

// BurstWP returns burst scheduling with write piggybacking (equivalent to a
// threshold of zero).
func BurstWP() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism {
		return newBurst(h, NameBurstWP, Options{WritePiggyback: true, Threshold: 0})
	}
}

// BurstNaive returns the ablation variant: burst clustering and arbiters
// intact, but transactions selected oldest-first instead of by the Table 2
// priority.
func BurstNaive() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism {
		return newBurst(h, "Burst_Naive", Options{NaivePriority: true})
	}
}

// BurstSized returns the Section 7 inter-burst variant: Burst_TH(52) with
// largest-burst-first ordering inside banks (aging-guarded).
func BurstSized() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism {
		return newBurst(h, "Burst_SZ", Options{
			ReadPreemption:    true,
			WritePiggyback:    true,
			Threshold:         52,
			LargestBurstFirst: true,
		})
	}
}

// BurstTH returns burst scheduling with both options switched by the static
// threshold. The paper's experimentally determined best value is 52 (of a
// 64-entry write queue).
func BurstTH(threshold int) memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism {
		return newBurst(h, fmt.Sprintf("%s%d", NameBurstTH, threshold), Options{
			ReadPreemption: true,
			WritePiggyback: true,
			Threshold:      threshold,
		})
	}
}

// burstGroup is a cluster of reads to one row of one bank. All accesses
// after the first are guaranteed row hits. Groups are pooled on the
// scheduler's free list, and the reads ride an intrusive list, so burst
// formation allocates nothing in steady state.
type burstGroup struct {
	row     uint32
	arrival uint64 // arrival of the first access, for inter-burst ordering
	reads   memctrl.AccessList
}

// bankState holds one bank's burst queue and piggyback context (writes
// live in the scheduler-wide memctrl.BankQueues).
type bankState struct {
	bursts []*burstGroup // FIFO by first-access arrival

	// endOfBurst marks the piggyback window: the last column issued on
	// this bank finished a burst (or was itself a piggybacked write) to
	// lastRow.
	endOfBurst bool
	lastRow    uint32

	// activeRow is the row of the burst currently draining (-1 when
	// none): inter-burst reordering never switches away from a
	// partially drained burst, preserving its back-to-back row hits.
	activeRow int64

	// preemptPending is set when a read ARRIVES while a write is ongoing
	// (paper Section 3.2: "read preemption allows a newly arrived read
	// to interrupt an ongoing write"); the arbiter acts on it next
	// cycle. Queued reads never retro-preempt, which avoids thrashing
	// forced writes near write-queue saturation.
	preemptPending bool
}

// burstSched is the mechanism instance for one channel.
type burstSched struct {
	name   string
	opt    Options
	host   *memctrl.Host
	engine *memctrl.Engine

	idx      dram.BankMap
	banks    []bankState         // by flat bank index
	writes   *memctrl.BankQueues // per-bank write FIFOs + nonempty bitmap
	burstsNE uint64              // banks with bursts

	freeGroups []*burstGroup // burstGroup pool

	// lastBank is the flat bank of the last scheduled transaction (-1
	// before the first); its rank is the Table 2 "same rank".
	lastBank int

	// preemptCount tracks how many banks currently have preemptPending
	// set. A pending flag always belongs to an occupied bank (it is set
	// only while a write is ongoing and consumed by the next tick's
	// arbitration pass, before any transaction can vacate the bank), so
	// this count equals what a scan of occupied banks would find: Tick's
	// preemption pass runs only while it is nonzero, and NextEventCycle
	// reads it in place of that scan.
	preemptCount int

	// dynamic-threshold state (see dynamic.go)
	dynamic        bool
	nextAdapt      uint64
	intervalReads  uint64
	intervalWrites uint64
}

func newBurst(h *memctrl.Host, name string, opt Options) *burstSched {
	s := &burstSched{name: name, opt: opt, host: h, lastBank: -1}
	s.engine = memctrl.NewEngine(h, s.onColumn)
	ch := h.Channel()
	s.idx = ch.BankMap()
	s.banks = make([]bankState, ch.Ranks()*ch.Banks())
	for f := range s.banks {
		s.banks[f] = bankState{activeRow: -1, bursts: make([]*burstGroup, 0, 8)}
	}
	s.writes = memctrl.NewBankQueues(ch)
	// Prewarm the group pool to two groups per bank (row-spread workloads
	// like mcf's pointer chase hold several open bursts per bank) so
	// steady-state burst formation starts allocation-free instead of
	// ramping the pool to its high-water mark mid-run.
	n := 2 * ch.Ranks() * ch.Banks()
	s.freeGroups = make([]*burstGroup, 0, 2*n)
	for i := 0; i < n; i++ {
		s.freeGroups = append(s.freeGroups, &burstGroup{})
	}
	return s
}

// acquireGroup pops a pooled burst group (or allocates one) and starts it
// with its first read.
func (s *burstSched) acquireGroup(row uint32, arrival uint64, first *memctrl.Access) *burstGroup {
	var bg *burstGroup
	if n := len(s.freeGroups); n > 0 {
		bg = s.freeGroups[n-1]
		s.freeGroups = s.freeGroups[:n-1]
	} else {
		// A pool refill allocates only until the group pool warms up.
		bg = &burstGroup{}
	}
	bg.row = row
	bg.arrival = arrival
	bg.reads.PushBack(first)
	return bg
}

// Name implements memctrl.Mechanism.
func (s *burstSched) Name() string { return s.name }

// ForwardsWrites implements memctrl.Mechanism: burst scheduling forwards
// write data to matching reads (paper Fig. 4).
func (s *burstSched) ForwardsWrites() bool { return true }

// Pending implements memctrl.Mechanism.
func (s *burstSched) Pending() (reads, writes int) { return s.host.Pending() }

// Enqueue implements the access enter queue subroutine (paper Fig. 4).
// Write-queue hits were already forwarded by the controller, so a read
// either joins an existing burst to its row or opens a new single-access
// burst at the tail of the bank's burst queue. Writes append to the bank's
// write queue in order.
func (s *burstSched) Enqueue(a *memctrl.Access, now uint64) {
	f := a.FlatBank(s.idx)
	st := &s.banks[f]
	if a.Kind == memctrl.KindWrite {
		s.writes.PushBack(a)
		s.intervalWrites++
		return
	}
	s.intervalReads++
	r, b := int(a.Loc.Rank), int(a.Loc.Bank)
	if s.opt.ReadPreemption && !st.preemptPending && s.ongoingWrite(f) &&
		s.host.GlobalWrites() < s.opt.Threshold {
		st.preemptPending = true
		s.preemptCount++
	}
	for _, bg := range st.bursts {
		if bg.row == a.Loc.Row {
			bg.reads.PushBack(a)
			s.host.Tracer().Mark(now, trace.EvBurstJoin, s.host.ChannelIndex(), r, b,
				a.Loc.Row, a.ID, uint64(bg.reads.Len()))
			return
		}
	}
	// The per-bank burst slice keeps its capacity across bursts.
	st.bursts = append(st.bursts, s.acquireGroup(a.Loc.Row, now, a))
	s.burstsNE |= 1 << uint(f)
	s.host.Tracer().Mark(now, trace.EvBurstForm, s.host.ChannelIndex(), r, b, a.Loc.Row, a.ID, 1)
}

// ongoingWrite reports whether bank f's ongoing access is a write.
func (s *burstSched) ongoingWrite(f int) bool {
	a := s.engine.Ongoing(f)
	return a != nil && a.Kind == memctrl.KindWrite
}

// Tick implements memctrl.Mechanism: adapt the threshold if dynamic, run
// every bank arbiter, then the global transaction scheduler.
//
// Each bank gets at most one arbitration visit per tick: vacant banks with
// queued work install, then occupied banks check a pending preemption.
// The occupied mask is snapshot before installing, so a bank installed
// this tick is not preempt-checked until the next. The vacant pass emits
// forced-write, piggyback and idle-write marks, and the preemption pass
// preemption marks, each in ascending bank order. A preemption needs
// fewer pooled writes than the threshold and queued reads, while those
// marks need a full write queue, more pooled writes than the threshold, or
// no pending reads, so with a threshold of at most MaxWrites no tick emits
// marks from both passes (DESIGN.md §11).
func (s *burstSched) Tick(now uint64) {
	if s.dynamic {
		s.adaptThreshold(now)
	}
	occ := s.engine.OccupiedMask()
	for m := (s.burstsNE | s.writes.Mask()) &^ occ; m != 0; m &= m - 1 {
		s.arbitrateVacant(bits.TrailingZeros64(m), now)
	}
	for m := occ; m != 0 && s.preemptCount > 0; m &= m - 1 {
		s.arbitrateOngoing(bits.TrailingZeros64(m), now)
	}
	if s.host.Channel().CommandSlotFree() {
		s.schedule(now)
	}
}

var _ memctrl.EventHinter = (*burstSched)(nil)

// NextEventCycle implements memctrl.EventHinter: the earliest future cycle
// at which, absent submissions and completions, this mechanism could act.
// Beyond the engine's transaction-release bound, burst scheduling has two
// internal timers: a pending read-preemption decision (resolved next tick)
// and the dynamic-threshold adaptation deadline.
func (s *burstSched) NextEventCycle(now uint64) uint64 {
	if s.preemptCount > 0 {
		return now + 1
	}
	next := s.engine.NextEventCycle(now)
	if s.dynamic && s.nextAdapt < next {
		next = s.nextAdapt
	}
	return next
}

// arbitrateVacant is the bank arbiter subroutine (paper Fig. 5) for a bank
// with no ongoing access.
func (s *burstSched) arbitrateVacant(f int, now uint64) {
	st := &s.banks[f]
	occupancy := s.host.GlobalWrites()
	reads, _ := s.host.Pending()
	wq := s.writes.List(f)

	// Evaluated once for both the piggyback guard and its body
	// (rowHitWrite is a pure scan).
	var piggyW *memctrl.Access
	if s.opt.WritePiggyback && occupancy > s.opt.Threshold && st.endOfBurst {
		piggyW = s.rowHitWrite(st, wq)
	}

	switch {
	case s.host.WriteQueueFull() && !wq.Empty():
		// Fig. 5 line 2: the pool can accept no more writes;
		// drain the oldest write. A write whose line is still
		// wanted by a queued (necessarily older — younger reads
		// were forwarded) read must not pass it: that would be a
		// WAR hazard the paper's Section 3.4 argument does not
		// cover for forced writes. Skip to the oldest safe write;
		// if every write is behind a queued read, serve reads so
		// the hazards clear.
		if w := s.oldestSafeWrite(st, wq); w != nil {
			s.installWrite(w, now, trace.EvForcedWrite)
		} else if len(st.bursts) > 0 {
			s.installRead(f, now)
		}
	case piggyW != nil:
		// Fig. 5 line 4: piggyback the oldest qualified write at
		// the end of the burst.
		s.installWrite(piggyW, now, trace.EvPiggyback)
	case !wq.Empty() && reads == 0 && len(st.bursts) == 0:
		// Fig. 5 line 6: "write queue is not empty and read queue
		// is empty" — reads are prioritized channel-wide, so
		// writes drain only when no reads are outstanding at all.
		// This aggressive read priority is what lets the write
		// queue approach saturation (paper Section 5.1).
		s.installWrite(wq.Front(), now, trace.EvIdleWrite)
	case len(st.bursts) > 0:
		// Fig. 5 line 8: first read in the next burst.
		s.installRead(f, now)
	}
}

// arbitrateOngoing handles Fig. 5 line 9: read preemption, triggered by a
// read's arrival while this write was ongoing. Only writes whose column
// has not issued can be interrupted (a completed transfer cannot be
// undone); the engine clears ongoing slots at column issue, so any write
// still installed here is interruptible.
func (s *burstSched) arbitrateOngoing(f int, now uint64) {
	st := &s.banks[f]
	if st.preemptPending {
		st.preemptPending = false
		s.preemptCount--
		if s.ongoingWrite(f) && len(st.bursts) > 0 && s.host.GlobalWrites() < s.opt.Threshold {
			s.preempt(f, now)
		}
	}
}

// installWrite removes w from its bank's write queue, makes it the bank's
// ongoing access and marks the arbiter decision that installed it.
func (s *burstSched) installWrite(w *memctrl.Access, now uint64, why trace.Kind) {
	s.writes.Remove(w)
	s.engine.SetOngoing(w)
	s.mark(now, why, w)
}

// mark records an arbiter decision about access a at its bank.
func (s *burstSched) mark(now uint64, k trace.Kind, a *memctrl.Access) {
	s.host.Tracer().Mark(now, k, s.host.ChannelIndex(), int(a.Loc.Rank), int(a.Loc.Bank), a.Loc.Row, a.ID, 0)
}

// installRead pops the head read of the bank's next burst and makes it
// ongoing. The next burst is the draining one if any; otherwise the oldest
// burst (or, under LargestBurstFirst, the largest burst subject to the
// aging guard).
func (s *burstSched) installRead(f int, now uint64) {
	st := &s.banks[f]
	bg := s.selectBurst(st, now)
	rd := bg.reads.PopFront()
	st.activeRow = int64(bg.row)
	// Leaving the burst in the queue lets newly arrived same-row reads
	// keep joining it while it drains (paper Section 3).
	s.engine.SetOngoing(rd)
}

// selectBurst picks the bank's next burst per the inter-burst policy.
func (s *burstSched) selectBurst(st *bankState, now uint64) *burstGroup {
	if st.activeRow >= 0 {
		for _, bg := range st.bursts {
			if int64(bg.row) == st.activeRow && bg.reads.Len() > 0 {
				return bg
			}
		}
		// The draining burst is exhausted or gone; fall through.
	}
	if !s.opt.LargestBurstFirst {
		return st.bursts[0]
	}
	limit := s.opt.StarvationLimit
	if limit == 0 {
		limit = defaultStarvationLimit
	}
	oldest := st.bursts[0]
	if now-oldest.arrival >= limit {
		return oldest // aging guard: the paper's starvation consideration
	}
	best := oldest
	for _, bg := range st.bursts[1:] {
		if bg.reads.Len() > best.reads.Len() {
			best = bg
		}
	}
	return best
}

// preempt resets bank f's ongoing write back to the front of the bank's
// write queue and installs the first read of the next burst (Fig. 5 lines
// 10-11). The write keeps any precharge/activate progress in the bank
// state — which is how a preempting read can observe a row empty (paper
// Section 5.2).
func (s *burstSched) preempt(f int, now uint64) {
	w := s.engine.Ongoing(f)
	s.engine.ClearOngoing(f)
	s.writes.PushFront(w)
	s.mark(now, trace.EvPreempt, w)
	s.installRead(f, now)
}

// onColumn runs when an access's column transaction issues: maintain the
// end-of-burst piggyback window.
func (s *burstSched) onColumn(a *memctrl.Access, now uint64) {
	f := a.FlatBank(s.idx)
	st := &s.banks[f]
	if a.Kind == memctrl.KindWrite {
		// Any completed write leaves its row open and opens a piggyback
		// window on that row: queued same-row writes follow back to
		// back, which is how piggybacking "exploits the locality of row
		// hits from writes" (Section 3.2) — L2 writebacks of
		// sequentially filled lines cluster by row.
		st.endOfBurst = true
		st.lastRow = a.Loc.Row
		return
	}
	for i, bg := range st.bursts {
		if bg.row != a.Loc.Row {
			continue
		}
		if bg.reads.Len() == 0 {
			// The burst is exhausted: remove it, recycle the group and
			// open the piggyback window on its row.
			copy(st.bursts[i:], st.bursts[i+1:])
			st.bursts[len(st.bursts)-1] = nil
			st.bursts = st.bursts[:len(st.bursts)-1]
			if len(st.bursts) == 0 {
				s.burstsNE &^= 1 << uint(f)
			}
			// The pool's capacity is bounded by the peak of live groups.
			s.freeGroups = append(s.freeGroups, bg)
			st.endOfBurst = true
			st.lastRow = a.Loc.Row
			st.activeRow = -1
			return
		}
		break
	}
	st.endOfBurst = false
}

// oldestSafeWrite returns the oldest write in the bank whose line is not
// wanted by any queued read, or nil when every write is hazardous (the
// reads will drain first).
func (s *burstSched) oldestSafeWrite(st *bankState, wq *memctrl.AccessList) *memctrl.Access {
	lineBytes := s.host.Config().Geometry.LineBytes
	for w := wq.Front(); w != nil; w = w.Next() {
		if !s.lineHasQueuedRead(st, w.LineAddr(lineBytes), lineBytes) {
			return w
		}
	}
	return nil
}

// lineHasQueuedRead reports whether any queued read in the bank targets
// the line.
func (s *burstSched) lineHasQueuedRead(st *bankState, line uint64, lineBytes int) bool {
	for _, bg := range st.bursts {
		for rd := bg.reads.Front(); rd != nil; rd = rd.Next() {
			if rd.LineAddr(lineBytes) == line {
				return true
			}
		}
	}
	return false
}

// rowHitWrite returns the oldest write to the bank's piggyback row, or
// nil. Writes whose line a queued read still wants are skipped (a read to
// the same row may have formed a fresh burst after the piggyback window
// opened; letting the write pass it would be a WAR hazard).
func (s *burstSched) rowHitWrite(st *bankState, wq *memctrl.AccessList) *memctrl.Access {
	lineBytes := s.host.Config().Geometry.LineBytes
	for w := wq.Front(); w != nil; w = w.Next() {
		if w.Loc.Row != st.lastRow {
			continue
		}
		if s.lineHasQueuedRead(st, w.LineAddr(lineBytes), lineBytes) {
			continue
		}
		return w
	}
	return nil
}

// schedule is the transaction scheduler subroutine (paper Fig. 6) driven by
// the static priority of paper Table 2. The engine classifies every
// unblocked bank into the four (column/row)×(read/write) masks; walking
// them from priority 1 to 8 finds the winner without computing a priority
// value per bank — the first nonempty class holds it, and only the
// oldest-arrival tie-break within that class needs per-bank work. When
// nothing is unblocked, the last bank moves to the bank holding the oldest
// access so its burst starts next (Fig. 6 lines 14-15).
func (s *burstSched) schedule(now uint64) {
	cl, any := s.engine.Unblocked(now)
	if !any {
		if f := s.engine.FoldOldest(s.engine.OccupiedMask(), -1); f >= 0 {
			s.lastBank = f
		}
		return
	}
	var f, pri int
	if s.opt.NaivePriority {
		f = s.engine.FoldOldest(cl.All(), -1)
	} else {
		f, pri = s.pickTable2(cl)
	}
	id := s.engine.Ongoing(f).ID
	cmd := s.engine.Issue(f, now)
	rank, bank := s.idx.Split(f)
	s.host.Tracer().SchedPick(now, s.host.ChannelIndex(), rank, bank, id, pri, cmdEventKind(cmd))
	s.lastBank = f
}

// pickTable2 walks the Table 2 classes from priority 1 (column read, same
// bank) to 8 (column write, other rank) and picks the first nonempty one's
// oldest bank. Each class is one mask: the last rank's columns are the
// column masks AND its rank mask, other ranks' columns the same masks AND
// NOT it. Same-priority arrival ties resolve to the lowest rank, then bank
// (Engine.FoldOldest).
func (s *burstSched) pickTable2(cl *memctrl.BankClasses) (f, pri int) {
	var lastRank uint64 // the last bank's rank (no bank before the first pick)
	if last := s.lastBank; last >= 0 {
		r, _ := s.idx.Split(last)
		lastRank = s.idx.RankMask(r)
		lastBit := uint64(1) << uint(last)
		switch {
		case cl.ColRead&lastBit != 0:
			return last, 1
		case cl.ColRead&lastRank != 0:
			return s.engine.FoldOldest(cl.ColRead&lastRank, -1), 2
		case cl.ColWrite&lastBit != 0:
			return last, 3
		case cl.ColWrite&lastRank != 0:
			return s.engine.FoldOldest(cl.ColWrite&lastRank, -1), 4
		}
	}
	// Row transactions rank 5/6 wherever they are — precharge and
	// activate overlap freely, no data bus needed. Columns on other ranks
	// pay the rank-to-rank turnaround: last.
	for i, m := range [...]uint64{cl.RowRead, cl.RowWrite, cl.ColRead &^ lastRank, cl.ColWrite &^ lastRank} {
		if m != 0 {
			return s.engine.FoldOldest(m, -1), 5 + i
		}
	}
	panic("core: class walk found no unblocked bank despite Unblocked reporting one")
}

// cmdEventKind maps a DRAM command to its trace event kind.
func cmdEventKind(c dram.Cmd) trace.Kind {
	switch c {
	case dram.CmdPrecharge:
		return trace.EvPrecharge
	case dram.CmdActivate:
		return trace.EvActivate
	case dram.CmdRead:
		return trace.EvRead
	case dram.CmdWrite:
		return trace.EvWrite
	case dram.CmdRefresh:
		return trace.EvRefresh
	}
	panic("core: unreachable command in cmdEventKind")
}
