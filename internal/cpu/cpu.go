// Package cpu implements the trace-driven out-of-order processor model of
// the baseline machine (paper Table 3): 8-wide, 196-entry ROB, 32-entry
// load/store queue, running at 4 GHz (ten CPU cycles per DDR2-800 memory
// cycle).
//
// The model reproduces the processor behaviours that access reordering
// results depend on, without executing an ISA:
//
//   - memory-level parallelism: independent loads in the ROB window issue
//     concurrently through non-blocking caches;
//   - load-latency coupling: an incomplete load at the ROB head blocks
//     retirement, so main-memory read latency translates into stall
//     cycles;
//   - dependent loads: pointer-chase workloads serialize, capping MLP;
//   - store-path back-pressure: stores retire through a bounded store
//     buffer; when cache writebacks saturate the memory controller's
//     write queue, the buffer fills and the pipeline stalls (the paper's
//     Section 5.1 mechanism).
//
// Pending loads (dispatched, not yet issued) wait on one list in dispatch
// order, which replay retries every cycle behind a gate: once a walk issues
// nothing, a repeat walk would get the same answers until a completion
// frees a slot of a full LSQ or the L1D's state moves, so replay charges
// the cache's refusals in bulk instead of re-probing them. A completion
// that resolves a pending load's address wakes that one load, which replay
// visits alone. The store buffer has a gate of its own: a store the L1D
// refused is charged, not re-probed, until the L1D's state moves. A CPU
// whose only work is charging refusals is idle to SkipEligible and
// NextEventCycle, and SkipCycles charges them in bulk.
package cpu

import (
	"fmt"
	"sort"

	"burstmem/internal/cache"
	"burstmem/internal/workload"
)

// Mem is the CPU's data-memory port (normally the L1 data cache). Stores
// use Access. Loads use AccessLoad, which also decides LSQ admission: with
// mayAllocate false, a load that would start a new line fetch returns
// cache.Parked and touches nothing. A load's done fires when its data is
// ready, after the port's hit latency on a hit (at once, inside AccessLoad,
// when that latency is zero); a store hit completes at once and fires
// nothing.
type Mem interface {
	Access(addr uint64, isWrite bool, done func()) cache.Result
	AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result
}

// refusalGate is the optional port (the L1 data cache) behind the replay
// and store gates. Version moves whenever an access the cache refused
// could get another answer; AddBlocked charges n refusals to the cache's
// Blocked statistic without probing.
type refusalGate interface {
	Version() uint64
	AddBlocked(n uint64)
}

// Config describes the core (defaults per paper Table 3).
type Config struct {
	Width        int // issue/retire width per CPU cycle
	ROBSize      int
	LSQSize      int // outstanding issued-and-incomplete loads
	StoreBufSize int
}

// DefaultConfig returns the Table 3 core: 4 GHz, 8-way, 196 ROB, 32 LSQ.
func DefaultConfig() Config {
	return Config{Width: 8, ROBSize: 196, LSQSize: 32, StoreBufSize: 32}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width < 1 || c.ROBSize < 1 || c.LSQSize < 1 || c.StoreBufSize < 1 {
		return fmt.Errorf("cpu: width/ROB/LSQ/store buffer must be positive: %+v", c)
	}
	return nil
}

// Stats reports execution statistics.
type Stats struct {
	Cycles  uint64
	Retired uint64

	LoadsIssued  uint64
	StoresQueued uint64

	ROBFullCycles      uint64 // dispatch stalled: ROB full
	StoreBufFullStalls uint64 // retirement stalled: store buffer full
	HeadLoadStalls     uint64 // retirement stalled: incomplete load at head
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// robEntry is one in-flight instruction.
type robEntry struct {
	typ     workload.OpType
	addr    uint64
	done    bool
	counted bool // holds an LSQ (outstanding line fetch) slot
	lsqWait bool // last issue attempt failed on a full LSQ
	seq     uint64
	// depIdx/depSeq identify the load this load's address depends on (a
	// ROB slot plus its generation); it may not issue until that load
	// completes or its slot is recycled (which implies retirement).
	depIdx int32
	// link is the ROB slot of this load's dependent, the next load, while
	// rob[link].depSeq == seq: only that load depends on this one. int32
	// indices keep the entry at 48 bytes.
	link   int32
	depSeq uint64
}

// storeSlot is one store-buffer entry.
type storeSlot struct {
	addr    uint64
	waiting bool // store missed; line fill in flight
	filled  bool // fill arrived; slot can pop
}

// NoEvent is NextEventCycle's "no internally scheduled event" sentinel:
// only an external cache callback can change the CPU's state.
const NoEvent = ^uint64(0)

// CPU is the core model. One CPU belongs to one core.
type CPU struct {
	cfg Config
	gen workload.Generator
	mem Mem

	rob        []robEntry
	head, tail int
	count      int
	seq        uint64

	// lastLoadIdx/lastLoadSeq identify the most recently dispatched load
	// (dependence target for pointer-chase ops).
	lastLoadIdx int
	lastLoadSeq uint64

	// pending holds the ROB indices of dispatched, not yet issued loads in
	// dispatch (seq) order.
	pending []int

	// The replay gate (see replay). A walk that issues nothing closes it,
	// recording the L1D's version and how many loads the cache refused;
	// dispatch adds its own refusals. completeLoad reopens it, or, while it
	// is closed, wakes the one load whose address it resolved: woken is that
	// load's ROB slot, -1 when none. gate is mem's refusalGate view, nil
	// when the port lacks one: the gate then never closes and replay walks
	// every cycle.
	gate    refusalGate
	gated   bool
	gateVer uint64
	refused uint64
	woken   int
	shadow  gateShadow

	lsqInFlight int

	// Store buffer: a fixed ring of StoreBufSize slots. sbIssued counts
	// slots from the head that have already been issued to the cache.
	sb       []storeSlot
	sbHead   int
	sbLen    int
	sbIssued int
	// The store gate (see drainStores): set when the L1D refused the first
	// unissued store, with the L1D's version then. Never set without a
	// refusalGate port.
	sbGated   bool
	sbGateVer uint64

	// Prebuilt completion callbacks, one per physical slot, so the hot
	// issue paths never allocate a closure. A ROB slot (or store-buffer
	// slot) has at most one cache callback outstanding at a time: a slot
	// cannot recycle until its occupant completes, and completion requires
	// the callback to have fired. issuedSeq guards against stale firings.
	loadCB    []func()
	sbFillCB  []func()
	issuedSeq []uint64 // rob generation at last issue, per slot

	// stalled records that the last Tick ended SkipEligible: until an
	// external cache callback arrives, every subsequent Tick is a pure
	// stall whose only effects are the counters and refusal charges
	// SkipCycles accounts, so Tick short-circuits. Cleared by loadReturned
	// and store-fill callbacks (the only external unblock events). A stall
	// with refusals to charge rests on a gate (stallOnGate) and also ends
	// when the L1D's version moves from stallVer; a plain stall never
	// reads the version.
	stalled     bool
	stallOnGate bool
	stallVer    uint64

	now          uint64 // internal cycle clock (never reset)
	totalRetired uint64 // lifetime retirement count (never reset)

	Stats Stats
}

// New builds a CPU over a workload generator and a memory port.
func New(cfg Config, gen workload.Generator, mem Mem) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &CPU{
		cfg:       cfg,
		gen:       gen,
		mem:       mem,
		rob:       make([]robEntry, cfg.ROBSize),
		pending:   make([]int, 0, cfg.ROBSize),
		sb:        make([]storeSlot, cfg.StoreBufSize),
		loadCB:    make([]func(), cfg.ROBSize),
		sbFillCB:  make([]func(), cfg.StoreBufSize),
		issuedSeq: make([]uint64, cfg.ROBSize),
		woken:     -1,
	}
	c.gate, _ = mem.(refusalGate)
	for i := range c.loadCB {
		i := i
		c.loadCB[i] = func() { c.loadReturned(i) }
	}
	for i := range c.sbFillCB {
		i := i
		c.sbFillCB[i] = func() {
			c.sb[i].filled = true
			c.stalled = false
		}
	}
	return c, nil
}

// Retired returns the lifetime retired instruction count (unaffected by
// ResetStats; Stats.Retired counts the current measurement window).
func (c *CPU) Retired() uint64 { return c.totalRetired }

// Cycles returns elapsed CPU cycles.
func (c *CPU) Cycles() uint64 { return c.Stats.Cycles }

// Tick advances one CPU cycle: drain the store buffer, retire, replay
// pending loads, dispatch. Loads complete through their cache callbacks,
// which the L1D's Tick fires before this one.
//
// While stalled (see the field comment), a full Tick provably performs
// exactly the SkipCycles(1) accounting — drainStores has everything issued
// or charges its gated store, no fill at the head, retire blocks on the
// head, replay has no walk to do or charges its holding gate's refusals,
// dispatch hits the full ROB — so it short-circuits to that.
func (c *CPU) Tick() {
	if c.stalled {
		// A plain stall takes the inlined counter path alone.
		if !c.stallOnGate {
			c.skipStall(1)
			return
		}
		if c.gate.Version() == c.stallVer {
			c.SkipCycles(1)
			return
		}
		c.stalled = false
	}
	c.now++
	c.Stats.Cycles++
	c.drainStores()
	c.retire()
	c.replay()
	c.dispatch()
	if c.stalled = c.SkipEligible(); c.stalled {
		if c.stallOnGate = c.gateCharge() > 0; c.stallOnGate {
			c.stallVer = c.gate.Version()
		}
	}
}

// completeLoad marks a load done and releases its LSQ slot. Freeing a slot
// of a full LSQ changes every pending load's mayAllocate and the walk's
// lsqFull latch, so it reopens the replay gate. Otherwise the completion
// changes at most one pending load's answer, its dependent's, whose address
// it resolves: with the gate closed and no load woken yet, it wakes that
// load and keeps the gate closed; a second wake reopens it. A completion
// with neither effect leaves the gate as it is.
func (c *CPU) completeLoad(idx int) {
	e := &c.rob[idx]
	if e.done {
		return
	}
	e.done = true
	reopen := false
	if e.counted {
		reopen = c.lsqInFlight == c.cfg.LSQSize
		c.lsqInFlight--
	}
	if c.rob[e.link].depSeq == e.seq {
		if !reopen && c.gated && c.woken < 0 {
			c.woken = int(e.link)
			return
		}
		reopen = true
	}
	if reopen {
		c.gated = false
	}
}

// storeIssueWidth bounds store-buffer cache accesses per cycle. Store
// misses fill in parallel (each holds a cache MSHR), so independent store
// misses overlap instead of serializing behind the buffer head.
const storeIssueWidth = 4

// drainStores retires completed stores from the buffer head and issues
// cache accesses for stores whose lines are not yet in flight. Stores
// issue in order, so sbIssued is a watermark: everything before it is
// already waiting or filled.
//
// The store gate. A refused store stops the issue loop, so it is the first
// unissued store until it issues; popping filled slots before it keeps it
// there. A store's answer depends only on the L1D's lines, MSHRs and
// writeback-queue length, as a load's does (see replay), so while the
// L1D's version stands still a repeat probe would be refused again:
// drainStores charges that refusal with AddBlocked(1) instead.
func (c *CPU) drainStores() {
	for c.sbLen > 0 && c.sb[c.sbHead].filled {
		c.sb[c.sbHead] = storeSlot{}
		if c.sbHead++; c.sbHead == c.cfg.StoreBufSize {
			c.sbHead = 0
		}
		c.sbLen--
		if c.sbIssued > 0 {
			c.sbIssued--
		}
	}
	holds := c.sbGated && c.gate.Version() == c.sbGateVer
	if holds && !c.shadow.armed() {
		c.gate.AddBlocked(1)
		return
	}
	c.sbGated = false
	issued := 0
	for c.sbIssued < c.sbLen && issued < storeIssueWidth {
		i := c.sbHead + c.sbIssued
		if i >= c.cfg.StoreBufSize {
			i -= c.cfg.StoreBufSize
		}
		s := &c.sb[i]
		res := c.mem.Access(s.addr, true, c.sbFillCB[i])
		if holds {
			c.shadow.checkStore(c.now, res)
			holds = false
		}
		switch res {
		case cache.Hit:
			s.filled = true
			issued++
			c.sbIssued++
		case cache.Miss, cache.MissMerged:
			s.waiting = true // write-allocate fill in flight (merged
			// misses ride the line fetch already outstanding)
			issued++
			c.sbIssued++
		case cache.Blocked:
			// Retry next cycle: this is the back-pressure path from
			// a saturated memory write queue. Stop issuing to
			// preserve ordering pressure at the blocked line.
			if c.gate != nil {
				c.sbGated, c.sbGateVer = true, c.gate.Version()
			}
			return
		}
	}
}

// retire commits up to Width completed instructions from the ROB head.
func (c *CPU) retire() {
	for n := 0; n < c.cfg.Width && c.count > 0; n++ {
		e := &c.rob[c.head]
		if !e.done {
			if e.typ == workload.OpLoad {
				c.Stats.HeadLoadStalls++
			}
			return
		}
		if e.typ == workload.OpStore {
			if c.sbLen >= c.cfg.StoreBufSize {
				c.Stats.StoreBufFullStalls++
				return
			}
			slot := c.sbHead + c.sbLen
			if slot >= c.cfg.StoreBufSize {
				slot -= c.cfg.StoreBufSize
			}
			c.sb[slot] = storeSlot{addr: e.addr}
			c.sbLen++
			c.Stats.StoresQueued++
		}
		if c.head++; c.head == c.cfg.ROBSize {
			c.head = 0
		}
		c.count--
		c.Stats.Retired++
		c.totalRetired++
	}
}

// walkNeeded reports whether replay has anything to do: pending loads, and
// an open gate, refusals to charge or a woken load. A closed gate with no
// refusals and no woken load means every pending load waits on an address
// dependence or a full LSQ, and only completeLoad can change either.
func (c *CPU) walkNeeded() bool {
	return len(c.pending) > 0 && (!c.gated || c.refused > 0 || c.woken >= 0)
}

// replay retries pending loads in dispatch order. The walk's lsqFull latch
// is bug-compatible with the original model: it starts from the live LSQ
// count, sets at the first failed visit while the LSQ is full, and never
// clears. Once it is set, loads parked on the LSQ are skipped; before
// that, such a load can still issue mid-walk as a hit or merged miss.
//
// The gate. A visit's answer depends on the load's dependence (changed
// only by completeLoad), the LSQ count (changed by completeLoad, and by a
// Miss, which allocates an MSHR) and the L1D's lines, MSHRs and writeback
// queue (each change moves the L1D's Version). A walk that issued nothing
// changed none of them, so while no load completes and the version stands
// still, a repeat walk would visit the same loads and get the same
// answers: the same refusals, and nothing issued. replay then charges
// those refusals with one AddBlocked call instead of walking. Only a walk
// that issued nothing may close the gate: an issue mid-walk (say, a Miss
// that fills the LSQ) changes the answers a repeat walk would give the
// loads visited before it.
//
// A woken load. The gate also holds, with no refusals recorded, whatever
// the version: every pending load then waits on a dependence or on a full
// LSQ. A completion that wakes a load leaves every other pending load's
// answer as recorded, so replay charges the recorded refusals, visits the
// woken load as the walk would, and keeps the gate closed (DESIGN §13
// says why the walk would issue nothing else).
func (c *CPU) replay() {
	if !c.walkNeeded() {
		return
	}
	holds := c.gated && (c.refused == 0 || c.gate.Version() == c.gateVer)
	if holds && !c.shadow.armed() {
		c.gate.AddBlocked(c.refused)
		if c.woken >= 0 {
			c.visitWoken()
			c.gateVer = c.gate.Version()
		}
		return
	}
	// woke* count the woken loads' own issues and refusals, which the
	// shadow check sets aside.
	issued, wokeIssued := 0, 0
	refused, wokeRefused := uint64(0), uint64(0)
	lsqFull := c.lsqInFlight >= c.cfg.LSQSize
	n := 0
	for _, idx := range c.pending {
		e := &c.rob[idx]
		if !lsqFull || !e.lsqWait {
			// A woken load's zero-latency hit wakes the next link inside
			// the visit, which comes next in the walk.
			woke := idx == c.woken
			if woke {
				c.woken = -1
			}
			if c.tryIssueLoad(idx, e) {
				issued++
				if woke {
					wokeIssued++
				}
				continue
			}
			if c.lsqInFlight >= c.cfg.LSQSize {
				lsqFull = true
			}
			if e.depSeq == 0 && !e.lsqWait {
				refused++ // the cache refused it
				if woke {
					wokeRefused++
				}
			}
		}
		c.pending[n] = idx
		n++
	}
	c.pending = c.pending[:n]
	if holds {
		c.shadow.check(c.now, c.refused, issued-wokeIssued, refused-wokeRefused)
	}
	c.refused = refused
	c.woken = -1
	// A holding gate stays closed, as the default build keeps it.
	c.gated = holds || (issued == 0 && c.gate != nil)
	if c.gated {
		c.gateVer = c.gate.Version()
	}
}

// visitWoken visits the woken load as the walk would, and then each load
// that visit wakes: a zero-latency L1D fires a hit's done inside
// AccessLoad, waking the next link, which the walk would visit next. An
// issued load leaves pending; a refused one counts in refused.
func (c *CPU) visitWoken() {
	for c.woken >= 0 {
		idx := c.woken
		c.woken = -1
		e := &c.rob[idx]
		if c.tryIssueLoad(idx, e) {
			c.dropPending(e.seq)
		} else if e.depSeq == 0 && !e.lsqWait {
			c.refused++ // the cache refused it
		}
	}
}

// dropPending removes the load with dispatch number seq from pending,
// which is in dispatch order.
func (c *CPU) dropPending(seq uint64) {
	p := c.pending
	i := sort.Search(len(p), func(i int) bool { return c.rob[p[i]].seq >= seq })
	c.pending = p[:i+copy(p[i:], p[i+1:])]
}

// tryIssueLoad attempts a load's cache access. Returns false if it must be
// replayed later: its address dependence is unresolved, the cache refused
// it (Blocked), or it would start a new line fetch with no LSQ slot free
// (Parked, which sets lsqWait). The LSQ bounds distinct outstanding line
// fetches; hits and merged misses ride existing entries.
func (c *CPU) tryIssueLoad(idx int, e *robEntry) bool {
	if e.depSeq != 0 {
		if dep := &c.rob[e.depIdx]; dep.seq == e.depSeq && !dep.done {
			return false // address not available yet
		}
		e.depSeq = 0
	}
	// Record the issue before the probe: a zero-latency port fires a hit's
	// done inside AccessLoad, and loadReturned must not take that firing
	// for a stale one.
	c.issuedSeq[idx] = e.seq
	res := c.mem.AccessLoad(e.addr, c.lsqInFlight < c.cfg.LSQSize, c.loadCB[idx])
	e.lsqWait = res == cache.Parked
	switch res {
	case cache.Miss:
		e.counted = true
		c.lsqInFlight++
	case cache.Hit, cache.MissMerged:
	default:
		return false
	}
	c.Stats.LoadsIssued++
	return true
}

// loadReturned is a load's completion callback, fired by the cache when
// the data is ready (hit or miss). The slot's rob generation must still
// match the generation at issue; a mismatch means the slot was recycled,
// which is only possible after the prior occupant completed, so stale
// firings are impossible in practice but guarded anyway.
func (c *CPU) loadReturned(idx int) {
	c.stalled = false
	if c.rob[idx].seq == c.issuedSeq[idx] {
		c.completeLoad(idx)
	}
}

// dispatch brings up to Width new instructions into the ROB.
func (c *CPU) dispatch() {
	for n := 0; n < c.cfg.Width; n++ {
		if c.count >= c.cfg.ROBSize {
			c.Stats.ROBFullCycles++
			return
		}
		op := c.gen.Next()
		c.seq++
		idx := c.tail
		e := &c.rob[idx]
		*e = robEntry{typ: op.Type, addr: op.Addr, seq: c.seq}
		if c.tail++; c.tail == c.cfg.ROBSize {
			c.tail = 0
		}
		c.count++
		switch op.Type {
		case workload.OpNonMem, workload.OpStore:
			// Non-memory work executes within the window; stores
			// compute their data by retirement. Both complete
			// immediately for retirement purposes.
			e.done = true
		case workload.OpLoad:
			if op.DepOnPrevLoad && c.lastLoadSeq != 0 {
				if dep := &c.rob[c.lastLoadIdx]; dep.seq == c.lastLoadSeq && !dep.done {
					e.depIdx = int32(c.lastLoadIdx)
					e.depSeq = c.lastLoadSeq
					dep.link = int32(idx)
				}
			}
			c.lastLoadIdx = idx
			c.lastLoadSeq = c.seq
			if !c.tryIssueLoad(idx, e) {
				if e.depSeq == 0 && !e.lsqWait {
					c.refused++ // the cache refused it
				}
				c.pending = append(c.pending, idx)
			}
		}
	}
}

// SkipEligible reports whether Tick is a guaranteed stall until external
// input (a cache callback) arrives or the L1D's version moves: nothing to
// retire, issue or dispatch. When true, each elapsed cycle would only bump
// the cycle count and the stall counters, and charge the gates' refusals,
// all of which SkipCycles applies in bulk.
func (c *CPU) SkipEligible() bool { return c.NextEventCycle() == NoEvent }

// NextEventCycle returns NoEvent when only an external cache callback or a
// move of the L1D's version can change the CPU's state, and otherwise the
// next CPU cycle (on the CPU's own clock). It depends on CPU state and the
// L1D's version alone: pending load completions, hits included, are the
// caches' events, and the version moves only when a cache ticks, fills or
// is accessed. While it returns NoEvent, each Tick is bit-identical to
// SkipCycles(1) because every stage idles: the store buffer is fully
// issued or its gate holds, with no fill at the head; the head is blocked
// (bumping exactly the stall counter SkipCycles bumps; an incomplete head
// is always a load, since non-memory ops and stores dispatch completed);
// replay has no walk to do or its gate holds; and the ROB is full.
func (c *CPU) NextEventCycle() uint64 {
	if c.stalled && (!c.stallOnGate || c.gate.Version() == c.stallVer) {
		// The stall the last Tick ended in still holds.
		return NoEvent
	}
	if c.count >= c.cfg.ROBSize {
		head := &c.rob[c.head]
		blocked := !head.done || (head.typ == workload.OpStore && c.sbLen >= c.cfg.StoreBufSize)
		// A needed walk behind a closed gate with no woken load has
		// refusals to charge.
		if blocked && !(c.sbLen > 0 && c.sb[c.sbHead].filled) &&
			(c.sbIssued == c.sbLen || c.idleGate(c.sbGated, c.sbGateVer)) &&
			(!c.walkNeeded() || c.woken < 0 && c.idleGate(c.gated, c.gateVer)) {
			return NoEvent
		}
	}
	return c.now + 1
}

// idleGate reports whether a gate leaves its stage nothing to do but
// charge refusals: it is closed, and the L1D's version is still ver, the
// one it recorded. Under -tags invariants a holding gate is work, since the
// shadow checks probe it.
func (c *CPU) idleGate(closed bool, ver uint64) bool {
	return closed && !c.shadow.armed() && c.gate.Version() == ver
}

// InertFor reports whether the next n Ticks are provably equivalent to
// SkipCycles(n): the next event NextEventCycle bounds lies beyond them.
func (c *CPU) InertFor(n uint64) bool {
	next := c.NextEventCycle()
	return next == NoEvent || next > c.now+n
}

// SkipCycles accounts n skipped stall cycles (caller checked SkipEligible
// or a NextEventCycle bound): the clock advances and the counters a
// stalled Tick would have bumped — ROB-full at dispatch, plus the
// head-blocked reason at retire — grow by n, and the L1D is charged n
// times the refusals each stalled Tick charges, in one AddBlocked call.
func (c *CPU) SkipCycles(n uint64) {
	c.skipStall(n)
	if k := c.gateCharge(); k > 0 {
		c.gate.AddBlocked(n * k)
	}
}

// skipStall is SkipCycles without the refusal charges, for a stall with
// none to charge.
func (c *CPU) skipStall(n uint64) {
	c.now += n
	c.Stats.Cycles += n
	c.Stats.ROBFullCycles += n
	if !c.rob[c.head].done {
		c.Stats.HeadLoadStalls += n
	} else {
		c.Stats.StoreBufFullStalls += n
	}
}

// gateCharge returns the refusals an idle Tick charges to the L1D: the
// replay gate's recorded ones, plus one for a gated store. Neither gate
// closes without a refusalGate port, so it is then 0.
func (c *CPU) gateCharge() uint64 {
	var k uint64
	if c.gated {
		k = c.refused
	}
	if c.sbGated {
		k++
	}
	return k
}

// ResetStats zeroes the statistics counters without disturbing
// architectural or timing state, opening a measurement window after cache
// warmup.
func (c *CPU) ResetStats() { c.Stats = Stats{} }
