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
// Pending loads are event-driven: instead of one linear replay list walked
// every cycle, loads park on wakeup queues keyed by what blocks them
// (dependence, LSQ slot, blocked cache), and a completing load wakes
// exactly its dependent. The replay walk visits only queues that can make
// progress, which also makes SkipEligible O(1) and gives NextEventCycle a
// precise bound for the simulator's cycle-skipping engine.
package cpu

import (
	"fmt"

	"burstmem/internal/cache"
	"burstmem/internal/deque"
	"burstmem/internal/workload"
)

// Mem is the CPU's data-memory port (normally the L1 data cache).
type Mem interface {
	Access(addr uint64, isWrite bool, done func()) cache.Result
}

// Config describes the core (defaults per paper Table 3).
type Config struct {
	Width        int // issue/retire width per CPU cycle
	ROBSize      int
	LSQSize      int // outstanding issued-and-incomplete loads
	StoreBufSize int
	L1Latency    int // CPU cycles charged for an L1 hit
}

// DefaultConfig returns the Table 3 core: 4 GHz, 8-way, 196 ROB, 32 LSQ.
func DefaultConfig() Config {
	return Config{Width: 8, ROBSize: 196, LSQSize: 32, StoreBufSize: 32, L1Latency: 3}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width < 1 || c.ROBSize < 1 || c.LSQSize < 1 || c.StoreBufSize < 1 {
		return fmt.Errorf("cpu: width/ROB/LSQ/store buffer must be positive: %+v", c)
	}
	if c.L1Latency < 0 {
		return fmt.Errorf("cpu: negative L1 latency")
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
	issued  bool
	counted bool // holds an LSQ (outstanding line fetch) slot
	lsqWait bool // last issue attempt failed on a full LSQ
	seq     uint64
	// depIdx/depSeq identify the load this load's address depends on (a
	// ROB slot plus its generation); it may not issue until that load
	// completes or its slot is recycled (which implies retirement).
	depIdx int
	depSeq uint64
}

// storeSlot is one store-buffer entry.
type storeSlot struct {
	addr    uint64
	waiting bool // store missed; line fill in flight
	filled  bool // fill arrived; slot can pop
}

// Park states for pending (dispatched, not yet issued) loads. A pending
// load sits in exactly one wakeup queue matching its state; psNone marks
// slots with no pending load (unoccupied, issued, or non-load).
const (
	psNone uint8 = iota
	psReady
	psBlocked
	psLsq
	psDep
)

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

	// Wakeup queues: ROB indices of pending loads in ascending dispatch
	// (seq) order, partitioned by park reason. The replay walk is a
	// min-seq merge across them, so the visit order is identical to the
	// single-list walk it replaced; the partition only lets the walk skip
	// entries that provably cannot progress.
	//
	//   readyQ   — dependence resolved by a completing load; must retry.
	//   blockedQ — cache refused the access (MSHR/writeback pressure or
	//              saturated memory write queue); must retry every cycle
	//              (each retry is what the cache's Blocked stat counts).
	//   lsqQ     — parked on a full LSQ; visited only while the walk's
	//              bug-compatible lsqFull flag is unset.
	//   depQ     — parked on an unresolved address dependence; woken by
	//              completeLoad via depWaiter, never by the walk. May hold
	//              stale entries already moved to readyQ (pstate disam-
	//              biguates); compacted on each walk.
	readyQ   []int
	blockedQ []int
	lsqQ     []int
	depQ     []int
	// Scratch double-buffers for rebuilding the queues during a walk
	// without allocating. lsqOut is the merge destination for the case
	// where an unvisited lsqQ tail must interleave with re-parked entries.
	scratchB []int
	scratchL []int
	scratchD []int
	lsqOut   []int

	// pstate tracks each ROB slot's park state (psNone when not pending).
	pstate []uint8
	// depWaiter[i] is the ROB index of the (at most one) load whose
	// address depends on the load in slot i, or -1. At most one because
	// the dependence target is always the most recently dispatched load,
	// and dispatching the dependent immediately makes it the new target.
	depWaiter []int

	lsqInFlight int

	// Store buffer: a fixed ring of StoreBufSize slots. sbIssued counts
	// slots from the head that have already been issued to the cache.
	sb       []storeSlot
	sbHead   int
	sbLen    int
	sbIssued int

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
	// stall whose only effects are the counters SkipCycles accounts, so
	// Tick short-circuits. Cleared by loadReturned and store-fill
	// callbacks (the only external unblock events).
	stalled bool

	// prober is mem's WouldAllocate view, resolved once at construction so
	// the load-issue path avoids a per-call interface assertion (nil when
	// the port does not support the query).
	prober allocProber
	// lport is mem's fused load-access view (AccessLoad): one address
	// decomposition and set probe decides both LSQ admission and the
	// access itself. Nil when the port does not support it (simple test
	// stubs); the issue path then falls back to WouldAllocate+Access.
	lport loadPort

	now          uint64                    // internal cycle clock (never reset)
	totalRetired uint64                    // lifetime retirement count (never reset)
	delayQ       deque.Deque[deferredDone] // L1-hit completions (constant latency FIFO)

	Stats Stats
}

type deferredDone struct {
	at  uint64
	idx int
	seq uint64
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
		readyQ:    make([]int, 0, cfg.ROBSize),
		blockedQ:  make([]int, 0, cfg.ROBSize),
		lsqQ:      make([]int, 0, cfg.ROBSize),
		depQ:      make([]int, 0, cfg.ROBSize),
		scratchB:  make([]int, 0, cfg.ROBSize),
		scratchL:  make([]int, 0, cfg.ROBSize),
		scratchD:  make([]int, 0, cfg.ROBSize),
		lsqOut:    make([]int, 0, cfg.ROBSize),
		pstate:    make([]uint8, cfg.ROBSize),
		depWaiter: make([]int, cfg.ROBSize),
		sb:        make([]storeSlot, cfg.StoreBufSize),
		loadCB:    make([]func(), cfg.ROBSize),
		sbFillCB:  make([]func(), cfg.StoreBufSize),
		issuedSeq: make([]uint64, cfg.ROBSize),
	}
	c.prober, _ = mem.(allocProber)
	c.lport, _ = mem.(loadPort)
	// L1-hit completions in flight are bounded by the LSQ; prewarm the
	// ring so the steady-state loop never pays its doubling growth.
	c.delayQ.Reserve(cfg.LSQSize)
	for i := range c.depWaiter {
		c.depWaiter[i] = -1
	}
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

// Tick advances one CPU cycle: drain the store buffer, fire L1-hit
// completions, retire, replay blocked loads, dispatch.
//
// While stalled (see the field comment), a full Tick provably performs
// exactly the SkipCycles(1) accounting — fireDelayed has nothing queued,
// drainStores has everything issued and no fill at the head, retire blocks
// on the head, replay has no runnable queue, dispatch hits the full ROB —
// so it short-circuits to that.
//
//burstmem:hotpath
func (c *CPU) Tick() {
	if c.stalled {
		c.SkipCycles(1)
		return
	}
	c.now++
	c.Stats.Cycles++
	c.fireDelayed()
	c.drainStores()
	c.retire()
	c.replay()
	c.dispatch()
	c.stalled = c.SkipEligible()
}

//burstmem:hotpath
func (c *CPU) fireDelayed() {
	for c.delayQ.Len() > 0 && c.delayQ.Front().at <= c.now {
		d := c.delayQ.PopFront()
		if c.rob[d.idx].seq == d.seq {
			c.completeLoad(d.idx)
		}
	}
}

// completeLoad marks a load done, releases its LSQ slot, and wakes the
// (at most one) load whose address depends on it: the dependent moves
// from depQ to readyQ, so the next replay walk visits exactly it instead
// of rediscovering it by scanning.
//
//burstmem:hotpath
func (c *CPU) completeLoad(idx int) {
	e := &c.rob[idx]
	if e.done {
		return
	}
	e.done = true
	if e.counted {
		c.lsqInFlight--
	}
	if w := c.depWaiter[idx]; w >= 0 {
		c.depWaiter[idx] = -1
		c.pstate[w] = psReady
		c.insertReady(w)
	}
}

// insertReady inserts a woken load into readyQ keeping ascending seq
// order (completions arrive out of order). The queue is near-empty in
// practice, so the linear shift from the back is cheap.
func (c *CPU) insertReady(idx int) {
	s := c.rob[idx].seq
	q := append(c.readyQ, 0)
	i := len(q) - 1
	for i > 0 && c.rob[q[i-1]].seq > s {
		q[i] = q[i-1]
		i--
	}
	q[i] = idx
	c.readyQ = q
}

// storeIssueWidth bounds store-buffer cache accesses per cycle. Store
// misses fill in parallel (each holds a cache MSHR), so independent store
// misses overlap instead of serializing behind the buffer head.
const storeIssueWidth = 4

// drainStores retires completed stores from the buffer head and issues
// cache accesses for stores whose lines are not yet in flight. Stores
// issue in order, so sbIssued is a watermark: everything before it is
// already waiting or filled.
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
	issued := 0
	for c.sbIssued < c.sbLen && issued < storeIssueWidth {
		i := c.sbHead + c.sbIssued
		if i >= c.cfg.StoreBufSize {
			i -= c.cfg.StoreBufSize
		}
		s := &c.sb[i]
		switch c.mem.Access(s.addr, true, c.sbFillCB[i]) {
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

// walkNeeded reports whether a replay walk could have any observable
// effect: a woken dependent, a cache-blocked load that must retry, or an
// LSQ-parked load with a free slot. Dep-parked loads never require a walk
// (completeLoad wakes them), and LSQ-parked loads behind a full LSQ would
// only be skipped.
//
//burstmem:hotpath
func (c *CPU) walkNeeded() bool {
	return len(c.readyQ) > 0 || len(c.blockedQ) > 0 ||
		(len(c.lsqQ) > 0 && c.lsqInFlight < c.cfg.LSQSize)
}

// replay retries loads that could not issue earlier. The walk is a
// min-seq merge over the wakeup queues, reproducing exactly the visit
// order (and the per-visit cache accesses) of a linear walk over all
// pending loads in dispatch order, with two refinements that change no
// observable behaviour:
//
//   - dep-parked loads are "visited" without an issue attempt (the
//     attempt would fail at the dependence check with no side effect);
//     the visit still updates the walk-local lsqFull flag, which controls
//     which LSQ-parked loads downstream in seq order get skipped;
//   - the walk runs only when walkNeeded: a skipped walk would have
//     issued no cache access (every load parked on a dependence or a
//     full LSQ, none cache-blocked, none woken).
//
// The lsqFull flag is bug-compatible with the original list walk: it
// initializes from the live LSQ count, flips to true at the first failed
// visit while the LSQ is full, and never flips back — so a load parked on
// the LSQ can still issue mid-walk if its line is already present or in
// flight (WouldAllocate false) and no earlier failure latched the flag.
//
//burstmem:hotpath
func (c *CPU) replay() {
	if !c.walkNeeded() {
		return
	}
	lsqFull := c.lsqInFlight >= c.cfg.LSQSize
	// Fast path: only cache-blocked loads are walkable — the typical
	// streaming steady state, where the L1 MSHRs are saturated and every
	// other queue is empty (or the LSQ-parked queue is wholesale skipped
	// behind a full LSQ). The min-seq merge degenerates to a linear walk
	// over blockedQ, which is already in seq order.
	if len(c.readyQ) == 0 && len(c.depQ) == 0 && (lsqFull || len(c.lsqQ) == 0) {
		newBlocked := c.scratchB[:0]
		newLsq := c.scratchL[:0]
		for _, idx := range c.blockedQ {
			e := &c.rob[idx]
			if c.tryIssueLoad(idx, e) {
				c.pstate[idx] = psNone
				continue
			}
			if c.lsqInFlight >= c.cfg.LSQSize {
				lsqFull = true
			}
			if e.lsqWait {
				// The LSQ filled mid-walk: the load re-parks there.
				c.pstate[idx] = psLsq
				//lint:ignore hotalloc scratch queue keeps its capacity across walks, bounded by ROB size
				newLsq = append(newLsq, idx)
				continue
			}
			//lint:ignore hotalloc scratch queue keeps its capacity across walks, bounded by ROB size
			newBlocked = append(newBlocked, idx)
		}
		c.blockedQ, c.scratchB = newBlocked, c.blockedQ
		c.commitLsq(0, newLsq)
		return
	}
	ri, bi, li, di := 0, 0, 0, 0
	newBlocked := c.scratchB[:0]
	newLsq := c.scratchL[:0]
	newDep := c.scratchD[:0]
	// Cached head seqs, refreshed only when a cursor advances: the merge's
	// per-iteration cost is register compares, not four ROB loads.
	const noSeq = ^uint64(0)
	rs, bs, ls, ds := noSeq, noSeq, noSeq, noSeq
	if len(c.readyQ) > 0 {
		rs = c.rob[c.readyQ[0]].seq
	}
	if len(c.blockedQ) > 0 {
		bs = c.rob[c.blockedQ[0]].seq
	}
	if len(c.lsqQ) > 0 {
		ls = c.rob[c.lsqQ[0]].seq
	}
	// Drop depQ entries already woken into readyQ (lazy deletion).
	for di < len(c.depQ) && c.pstate[c.depQ[di]] != psDep {
		di++
	}
	if di < len(c.depQ) {
		ds = c.rob[c.depQ[di]].seq
	}
walk:
	for {
		best, src := rs, 0
		if bs < best {
			best, src = bs, 1
		}
		if !lsqFull && ls < best {
			best, src = ls, 2
		}
		if ds < best {
			best, src = ds, 3
		}
		if best == noSeq {
			break
		}
		var idx int
		switch src {
		case 0:
			idx = c.readyQ[ri]
			ri++
			rs = noSeq
			if ri < len(c.readyQ) {
				rs = c.rob[c.readyQ[ri]].seq
			}
		case 1:
			idx = c.blockedQ[bi]
			bi++
			bs = noSeq
			if bi < len(c.blockedQ) {
				bs = c.rob[c.blockedQ[bi]].seq
			}
		case 2:
			idx = c.lsqQ[li]
			li++
			ls = noSeq
			if li < len(c.lsqQ) {
				ls = c.rob[c.lsqQ[li]].seq
			}
		default:
			// Dependence still unresolved: the issue attempt would fail
			// with no side effect beyond latching the lsqFull flag.
			if c.lsqInFlight >= c.cfg.LSQSize {
				lsqFull = true
			}
			if rs == noSeq && bs == noSeq && (lsqFull || ls == noSeq) {
				// Only dep-parked loads remain and the flag is settled:
				// the rest of the walk is pure bookkeeping, so keep the
				// tail in bulk (stale entries stay lazily deleted).
				//lint:ignore hotalloc scratch queue keeps its capacity across walks, bounded by ROB size
				newDep = append(newDep, c.depQ[di:]...)
				di = len(c.depQ)
				break walk
			}
			//lint:ignore hotalloc scratch queue keeps its capacity across walks, bounded by ROB size
			newDep = append(newDep, c.depQ[di])
			di++
			for di < len(c.depQ) && c.pstate[c.depQ[di]] != psDep {
				di++
			}
			ds = noSeq
			if di < len(c.depQ) {
				ds = c.rob[c.depQ[di]].seq
			}
			continue
		}
		e := &c.rob[idx]
		if c.tryIssueLoad(idx, e) {
			c.pstate[idx] = psNone
			continue
		}
		if c.lsqInFlight >= c.cfg.LSQSize {
			lsqFull = true
		}
		switch {
		case e.lsqWait:
			c.pstate[idx] = psLsq
			//lint:ignore hotalloc scratch queue keeps its capacity across walks, bounded by ROB size
			newLsq = append(newLsq, idx)
		case e.depSeq != 0:
			c.pstate[idx] = psDep
			//lint:ignore hotalloc scratch queue keeps its capacity across walks, bounded by ROB size
			newDep = append(newDep, idx)
		default:
			// Cache-blocked: must retry every cycle (the retry is what
			// the cache's Blocked statistic counts).
			c.pstate[idx] = psBlocked
			//lint:ignore hotalloc scratch queue keeps its capacity across walks, bounded by ROB size
			newBlocked = append(newBlocked, idx)
		}
	}
	c.readyQ = c.readyQ[:0]
	c.blockedQ, c.scratchB = newBlocked, c.blockedQ
	c.depQ, c.scratchD = newDep, c.depQ
	c.commitLsq(li, newLsq)
}

// commitLsq folds a replay walk's re-parked loads (newLsq, in seq order)
// back into the LSQ-parked queue, given that the walk consumed the first
// li entries of the old queue.
func (c *CPU) commitLsq(li int, newLsq []int) {
	if li == 0 && len(newLsq) == 0 {
		// No LSQ-parked load was visited or re-parked (typical when the
		// flag was latched from the start): the queue is unchanged.
		return
	}
	switch {
	case li >= len(c.lsqQ):
		// Every entry was visited: the rebuilt queue replaces it.
		c.lsqQ, c.scratchL = newLsq, c.lsqQ
	case len(newLsq) == 0:
		// Visited entries all issued; compact the unvisited tail in place.
		n := copy(c.lsqQ, c.lsqQ[li:])
		c.lsqQ = c.lsqQ[:n]
	default:
		// The lsqFull flag latched with entries still unvisited; later
		// visits may have re-parked loads with larger seqs, so the two
		// sorted runs must interleave by seq, not concatenate.
		out := c.lsqOut[:0]
		i := 0
		for i < len(newLsq) && li < len(c.lsqQ) {
			if c.rob[newLsq[i]].seq < c.rob[c.lsqQ[li]].seq {
				out = append(out, newLsq[i])
				i++
			} else {
				out = append(out, c.lsqQ[li])
				li++
			}
		}
		out = append(out, newLsq[i:]...)
		out = append(out, c.lsqQ[li:]...)
		c.lsqQ, c.lsqOut = out, c.lsqQ
	}
}

// tryIssueLoad attempts a load's cache access. Returns false if it must be
// replayed later.
//
//burstmem:hotpath
func (c *CPU) tryIssueLoad(idx int, e *robEntry) bool {
	if e.depSeq != 0 {
		if dep := &c.rob[e.depIdx]; dep.seq == e.depSeq && !dep.done {
			return false // address not available yet
		}
		e.depSeq = 0
	}
	// The LSQ bounds distinct outstanding line fetches; hits and merged
	// misses ride existing entries. A load that may allocate a new fetch
	// must find a free slot first. With a fused port both decisions take
	// one probe: Parked is exactly the WouldAllocate-true park, with no
	// access performed.
	var res cache.Result
	if c.lport != nil {
		res = c.lport.AccessLoad(e.addr, c.lsqInFlight < c.cfg.LSQSize, c.loadCB[idx])
		if res == cache.Parked {
			e.lsqWait = true
			return false
		}
	} else {
		if c.lsqInFlight >= c.cfg.LSQSize && c.wouldAllocate(e.addr) {
			e.lsqWait = true
			return false
		}
		res = c.mem.Access(e.addr, false, c.loadCB[idx])
	}
	e.lsqWait = false
	seq := e.seq
	c.issuedSeq[idx] = seq
	switch res {
	case cache.Hit:
		e.issued = true
		c.Stats.LoadsIssued++
		c.delayQ.PushBack(deferredDone{
			at: c.now + uint64(c.cfg.L1Latency), idx: idx, seq: seq,
		})
		return true
	case cache.Miss:
		e.issued = true
		e.counted = true
		c.lsqInFlight++
		c.Stats.LoadsIssued++
		return true
	case cache.MissMerged:
		e.issued = true
		c.Stats.LoadsIssued++
		return true
	default:
		return false
	}
}

// allocProber is the optional memory-port query wouldAllocate uses.
type allocProber interface{ WouldAllocate(addr uint64) bool }

// loadPort is the optional fused load-access port (the L1 cache): one
// probe decides LSQ admission and performs the access, returning
// cache.Parked — side-effect free — when the load must wait for a slot.
type loadPort interface {
	AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result
}

// wouldAllocate asks the memory port whether a load would start a new line
// fetch, when the port supports the query (the L1 cache does; simple test
// stubs need not).
//
//burstmem:hotpath
func (c *CPU) wouldAllocate(addr uint64) bool {
	if c.prober != nil {
		return c.prober.WouldAllocate(addr)
	}
	return true
}

// loadReturned is the miss-path completion callback. The slot's rob
// generation must still match the generation at issue; a mismatch means
// the slot was recycled, which is only possible after the prior occupant
// completed, so stale firings are impossible in practice but guarded
// anyway.
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
		c.pstate[idx] = psNone
		c.depWaiter[idx] = -1
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
					e.depIdx = c.lastLoadIdx
					e.depSeq = c.lastLoadSeq
				}
			}
			c.lastLoadIdx = idx
			c.lastLoadSeq = c.seq
			if !c.tryIssueLoad(idx, e) {
				// Park by reason; appends keep seq order (new loads have
				// the maximal seq).
				switch {
				case e.depSeq != 0:
					c.depWaiter[e.depIdx] = idx
					c.pstate[idx] = psDep
					c.depQ = append(c.depQ, idx)
				case e.lsqWait:
					c.pstate[idx] = psLsq
					c.lsqQ = append(c.lsqQ, idx)
				default:
					c.pstate[idx] = psBlocked
					c.blockedQ = append(c.blockedQ, idx)
				}
			}
		}
	}
}

// SkipEligible reports whether Tick is a guaranteed stall until external
// input (a cache callback) arrives: nothing to fire, retire, issue or
// dispatch. When true, each elapsed cycle would only bump the cycle count
// and the stall counters that SkipCycles applies in bulk.
//
// The conditions mirror Tick stage by stage: no deferred L1-hit
// completions; every buffered store already issued and the head slot's
// fill not yet arrived (drainStores idles); the ROB head blocked — an
// incomplete load, or a store facing a full buffer (retire idles; an
// incomplete head is always a load, since non-memory ops and stores
// dispatch completed); no wakeup queue runnable (replay idles); and the
// ROB full (dispatch idles). All O(1) — the wakeup queues replace the
// linear pending-load scan the check previously needed.
func (c *CPU) SkipEligible() bool {
	if c.delayQ.Len() != 0 || c.count < c.cfg.ROBSize {
		return false
	}
	if c.sbIssued != c.sbLen || (c.sbLen > 0 && c.sb[c.sbHead].filled) {
		return false
	}
	head := &c.rob[c.head]
	if head.done && !(head.typ == workload.OpStore && c.sbLen >= c.cfg.StoreBufSize) {
		return false
	}
	return !c.walkNeeded()
}

// NextEventCycle returns the next CPU cycle (on the CPU's own clock) at
// which Tick could do anything beyond the bulk accounting SkipCycles
// performs, or NoEvent when only an external cache callback can change
// state. The caller may replace the Ticks strictly before the returned
// cycle with one SkipCycles call; the result is bit-identical because in
// that span every stage idles: nothing in delayQ is due, the store buffer
// is fully issued with no fill at the head, the head is blocked (bumping
// exactly the stall counter SkipCycles bumps), no wakeup queue is
// runnable, and the ROB is full.
func (c *CPU) NextEventCycle() uint64 {
	if c.stalled {
		// SkipEligible held at the last Tick and no callback has arrived
		// since: delayQ is empty, so nothing internal is scheduled.
		return NoEvent
	}
	if c.count >= c.cfg.ROBSize && !c.walkNeeded() &&
		c.sbIssued == c.sbLen && !(c.sbLen > 0 && c.sb[c.sbHead].filled) {
		head := &c.rob[c.head]
		if !head.done || (head.typ == workload.OpStore && c.sbLen >= c.cfg.StoreBufSize) {
			// Active-quiet: identical to the stalled state except for
			// pending L1-hit completions, the earliest of which is the
			// next state change (the delay queue is a constant-latency
			// FIFO, so the front is the minimum).
			if c.delayQ.Len() > 0 {
				return c.delayQ.Front().at
			}
			return NoEvent
		}
	}
	return c.now + 1
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
// head-blocked reason at retire — grow by n.
func (c *CPU) SkipCycles(n uint64) {
	c.now += n
	c.Stats.Cycles += n
	c.Stats.ROBFullCycles += n
	if !c.rob[c.head].done {
		c.Stats.HeadLoadStalls += n
	} else {
		c.Stats.StoreBufFullStalls += n
	}
}

// ResetStats zeroes the statistics counters without disturbing
// architectural or timing state, opening a measurement window after cache
// warmup.
func (c *CPU) ResetStats() { c.Stats = Stats{} }

// Quiesced reports whether the CPU has no in-flight memory activity
// (used to drain simulations cleanly).
func (c *CPU) Quiesced() bool {
	return c.lsqInFlight == 0 && c.sbLen == 0 && c.delayQ.Len() == 0
}
