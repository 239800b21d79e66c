// Package cache implements the set-associative, write-back, write-allocate
// caches of the baseline machine (paper Table 3): 128 KB 2-way L1 I/D and a
// 2 MB 16-way L2, all with 64-byte lines, plus MSHRs with miss coalescing
// and a bounded dirty-writeback path.
//
// Caches are levels in a chain: each cache's backend is the next level
// (another cache, or the front-side-bus adapter to the memory controller).
// All interactions are non-blocking with explicit back-pressure: an access
// or writeback that cannot proceed returns a "blocked" result and the
// caller retries — which is precisely the path by which a saturated memory
// write queue stalls the CPU pipeline (paper Section 5.1).
package cache

import (
	"fmt"

	"burstmem/internal/deque"
	"burstmem/internal/u64map"
)

// Backend is the next level below a cache.
type Backend interface {
	// ReadLine requests a line fill. done runs when data arrives. A
	// false return means the backend cannot accept the request this
	// cycle (retry later).
	ReadLine(addr uint64, done func()) bool
	// WriteLine hands a dirty line down (writeback). A false return
	// means the backend is full (retry later).
	WriteLine(addr uint64) bool
}

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	// MSHRs bounds outstanding misses (distinct lines).
	MSHRs int
	// WritebackBuf bounds queued dirty evictions awaiting the backend.
	// When full, fills (and therefore new misses) are blocked.
	WritebackBuf int
	// LatencyCycles is the hit/service latency in this cache's clock
	// domain, charged when this cache serves a request from the level
	// above.
	LatencyCycles int
	// WarmStart models a steady-state cache in finite simulations: a
	// fill that would land in a never-used way instead evicts a
	// synthesized resident line (same set, different tag), dirty with
	// probability WarmDirtyPercent/100. Large caches thus emit writeback
	// traffic from the first miss, as they would after billions of
	// warmup instructions, instead of only after the whole capacity has
	// been touched.
	WarmStart bool
	// WarmDirtyPercent is the dirty share of synthesized warm residents
	// (0..100). Callers should set it near the workload's store share.
	WarmDirtyPercent int
}

// L1Config returns the Table 3 L1 configuration (128 KB, 2-way, 64 B).
func L1Config(name string) Config {
	return Config{Name: name, SizeBytes: 128 << 10, Ways: 2, LineBytes: 64,
		MSHRs: 32, WritebackBuf: 8, LatencyCycles: 3}
}

// L2Config returns the Table 3 L2 configuration (2 MB, 16-way, 64 B).
func L2Config() Config {
	return Config{Name: "L2", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64,
		MSHRs: 40, WritebackBuf: 16, LatencyCycles: 12, WarmStart: true, WarmDirtyPercent: 30}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: size/ways/line must be positive", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	if c.MSHRs <= 0 || c.WritebackBuf <= 0 {
		return fmt.Errorf("cache %s: MSHRs and writeback buffer must be positive", c.Name)
	}
	if c.LatencyCycles < 0 {
		return fmt.Errorf("cache %s: negative latency", c.Name)
	}
	if c.WarmDirtyPercent < 0 || c.WarmDirtyPercent > 100 {
		return fmt.Errorf("cache %s: WarmDirtyPercent %d out of [0,100]", c.Name, c.WarmDirtyPercent)
	}
	return nil
}

// Result is the outcome of a cache access attempt.
type Result int

// Access outcomes. Hit completes at the cache's latency; Miss means a new
// MSHR was allocated and a line fetch starts; MissMerged means the access
// joined an MSHR whose fetch was already in flight (both fire the done
// callback when the fill arrives); Blocked means nothing was done and the
// caller must retry next cycle; Parked (AccessLoad only) means the access
// would allocate a new line fetch but the caller forbade allocation — no
// state was touched and no statistic counted.
const (
	Hit Result = iota
	Miss
	MissMerged
	Blocked
	Parked
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MissMerged:
		return "miss-merged"
	case Blocked:
		return "blocked"
	case Parked:
		return "parked"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64 // primary misses (MSHR allocations)
	Coalesced  uint64 // secondary misses merged into an existing MSHR
	Blocked    uint64 // accesses refused for MSHR/writeback pressure
	Writebacks uint64
	Evictions  uint64
}

// MissRate returns misses / (hits + misses).
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses + s.Coalesced
	if t == 0 {
		return 0
	}
	return float64(s.Misses+s.Coalesced) / float64(t)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch tick
}

type mshr struct {
	addr    uint64
	isWrite bool // whether any merged request was a store (fill dirty)
	waiters []func()
	issued  bool // request accepted by the backend
	// fillFn is the completion callback handed to the backend. It is built
	// once per pooled mshr object and reused across occupancies: at most
	// one fill per object is ever in flight (the object returns to the
	// pool only after its fill fires), so the binding stays unambiguous.
	fillFn func()
}

// Cache is one cache level.
type Cache struct {
	cfg     Config
	backend Backend

	// lines holds every set's ways contiguously (set s occupies
	// lines[s*ways : (s+1)*ways]): one flat allocation, no per-set
	// pointer chase on the probe path.
	lines   []line
	ways    int
	numSets int
	// mru remembers each set's most recently hit way. Temporal locality
	// makes it the overwhelmingly likely hit, so Access probes it before
	// scanning the set; purely an ordering shortcut over an equality
	// scan, invisible in results.
	mru     []uint8
	setMask uint64
	offBits uint

	mshrs    *u64map.Map[*mshr] // in-flight line fetches by line address
	mshrFree []*mshr            // recycled mshr objects
	mshrQ    deque.Deque[*mshr] // MSHRs not yet issued to the backend
	wbQ      deque.Deque[uint64]
	tick     uint64 // LRU touch counter

	now       uint64                // cycle counter, advanced by Tick
	delayQ    deque.Deque[deferred] // latency-deferred callbacks, FIFO (constant delay)
	fireBatch []func()              // scratch for Tick's batched completion delivery

	Stats Stats
}

// deferred is a callback scheduled for a future cycle.
type deferred struct {
	at uint64
	fn func()
}

// deferResponse schedules fn after the cache's service latency. With a constant
// delay the queue stays sorted, so a FIFO suffices.
func (c *Cache) deferResponse(fn func()) {
	if c.cfg.LatencyCycles == 0 {
		fn()
		return
	}
	c.delayQ.PushBack(deferred{at: c.now + uint64(c.cfg.LatencyCycles), fn: fn})
}

// acquireMSHR pops a recycled mshr or builds a new one with its prebuilt
// fill callback.
func (c *Cache) acquireMSHR(la uint64, isWrite bool) *mshr {
	var m *mshr
	if n := len(c.mshrFree); n > 0 {
		m = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
	} else {
		m = &mshr{}
		m.fillFn = func() { c.fill(m) }
	}
	m.addr = la
	m.isWrite = isWrite
	m.issued = false
	return m
}

// New builds a cache over the given backend.
func New(cfg Config, backend Backend) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	c := &Cache{
		cfg:     cfg,
		backend: backend,
		lines:   make([]line, sets*cfg.Ways),
		ways:    cfg.Ways,
		numSets: sets,
		mru:     make([]uint8, sets),
		setMask: uint64(sets - 1),
		mshrs:   u64map.New[*mshr](cfg.MSHRs),
	}
	for v := cfg.LineBytes; v > 1; v >>= 1 {
		c.offBits++
	}
	// Pre-build the whole mshr pool (MSHRs bounds concurrent occupancy, so
	// acquireMSHR can never need more) with waiter-list slack, and give the
	// Tick fire batch its scratch up front: the steady-state loop then runs
	// allocation-free from the first cycle instead of ramping each pool to
	// its high-water mark mid-measurement.
	c.mshrFree = make([]*mshr, 0, cfg.MSHRs)
	for i := 0; i < cfg.MSHRs; i++ {
		m := &mshr{waiters: make([]func(), 0, 8)}
		m.fillFn = func() { c.fill(m) }
		c.mshrFree = append(c.mshrFree, m)
	}
	c.fireBatch = make([]func(), 0, 16)
	c.mshrQ.Reserve(cfg.MSHRs)
	c.wbQ.Reserve(2 * cfg.WritebackBuf)
	c.delayQ.Reserve(32)
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// index returns the set and tag of an address. The tag is the full line
// number (set bits included), which keeps reconstruction of victim
// addresses trivial; equality implies same set regardless.
func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> c.offBits
	return lineAddr & c.setMask, lineAddr
}

func (c *Cache) lineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

// Access performs a load (isWrite=false) or store (isWrite=true) with
// write-allocate semantics. On Miss, done fires when the fill completes.
// done may be nil for callers that do not need notification.
func (c *Cache) Access(addr uint64, isWrite bool, done func()) Result {
	c.tick++
	set, tag := c.index(addr)
	ways := c.lines[int(set)*c.ways : int(set)*c.ways+c.ways]
	if ln := &ways[c.mru[set]]; ln.valid && ln.tag == tag {
		ln.lru = c.tick
		if isWrite {
			ln.dirty = true
		}
		c.Stats.Hits++
		return Hit
	}
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			ln.lru = c.tick
			if isWrite {
				ln.dirty = true
			}
			c.mru[set] = uint8(i)
			c.Stats.Hits++
			return Hit
		}
	}
	// Miss. Coalesce into an existing MSHR if one covers the line.
	la := c.lineAddr(addr)
	if m, ok := c.mshrs.Get(la); ok {
		if done != nil {
			m.waiters = append(m.waiters, done)
		}
		m.isWrite = m.isWrite || isWrite
		c.Stats.Coalesced++
		return MissMerged
	}
	if c.mshrs.Len() >= c.cfg.MSHRs || c.wbQ.Len() >= c.cfg.WritebackBuf {
		// No MSHR, or fills might have nowhere to push victims.
		c.Stats.Blocked++
		return Blocked
	}
	m := c.acquireMSHR(la, isWrite)
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.mshrs.Put(la, m)
	c.mshrQ.PushBack(m)
	c.Stats.Misses++
	return Miss
}

// AccessLoad performs a load access whose LSQ-slot admission is decided by
// the cache in the same pass: with mayAllocate false, an access that would
// start a new line fetch returns Parked with zero side effects (the CPU
// parks the load on its LSQ queue and retries when a slot frees). This
// fuses the WouldAllocate probe and the subsequent Access into a single
// address decomposition and set probe — on an LSQ-saturated replay walk
// the old pair decomposed and probed every address twice.
//
// The outcome and every observable side effect (LRU/MRU touches, statistic
// counters, MSHR state) are identical to WouldAllocate+Access: hits and
// coalesced misses proceed regardless of mayAllocate, exactly as they did
// when WouldAllocate returned false.
//
//burstmem:hotpath
func (c *Cache) AccessLoad(addr uint64, mayAllocate bool, done func()) Result {
	set, tag := c.index(addr)
	base := int(set) * c.ways
	ways := c.lines[base : base+c.ways]
	if ln := &ways[c.mru[set]]; ln.valid && ln.tag == tag {
		c.tick++
		ln.lru = c.tick
		c.Stats.Hits++
		return Hit
	}
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			c.tick++
			ln.lru = c.tick
			c.mru[set] = uint8(i)
			c.Stats.Hits++
			return Hit
		}
	}
	la := tag << c.offBits
	if m, ok := c.mshrs.Get(la); ok {
		if done != nil {
			//lint:ignore hotalloc waiter slice capacity is retained across MSHR pool reuse
			m.waiters = append(m.waiters, done)
		}
		c.Stats.Coalesced++
		return MissMerged
	}
	if !mayAllocate {
		return Parked
	}
	if c.mshrs.Len() >= c.cfg.MSHRs || c.wbQ.Len() >= c.cfg.WritebackBuf {
		// No MSHR, or fills might have nowhere to push victims.
		c.Stats.Blocked++
		return Blocked
	}
	m := c.acquireMSHR(la, false)
	if done != nil {
		//lint:ignore hotalloc waiter slice capacity is retained across MSHR pool reuse
		m.waiters = append(m.waiters, done)
	}
	c.mshrs.Put(la, m)
	c.mshrQ.PushBack(m)
	c.Stats.Misses++
	return Miss
}

// WouldAllocate reports whether an access to addr would start a new line
// fetch (neither present nor already in flight). The CPU uses this to
// charge LSQ slots only for distinct outstanding fetches. (The CPU's hot
// path uses AccessLoad, which answers the same question and performs the
// access in one probe; this remains for callers that only want the query.)
func (c *Cache) WouldAllocate(addr uint64) bool {
	if c.Probe(addr) {
		return false
	}
	_, inflight := c.mshrs.Get(c.lineAddr(addr))
	return !inflight
}

// Probe reports whether the line is present without touching LRU state.
// The MRU hint is checked first — same shortcut as Access, equally
// invisible in results (a pure ordering change over an equality scan).
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	ways := c.lines[int(set)*c.ways : int(set)*c.ways+c.ways]
	if ln := &ways[c.mru[set]]; ln.valid && ln.tag == tag {
		return true
	}
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Tick advances one cycle of the cache's clock domain: latency-deferred
// responses fire, pending miss requests issue to the backend, and the
// writeback queue drains.
//
// Due completions are drained in a batch before any fires: the callbacks
// never re-enter this cache's delay queue (they belong to the level above),
// so a burst of same-cycle fills pays the queue's boundary checks once
// instead of once per waiter.
//
//burstmem:hotpath
func (c *Cache) Tick() {
	c.now++
	if c.delayQ.Len() > 0 && c.delayQ.Front().at <= c.now {
		batch := c.fireBatch[:0]
		for c.delayQ.Len() > 0 && c.delayQ.Front().at <= c.now {
			//lint:ignore hotalloc fire-batch scratch keeps its capacity across ticks
			batch = append(batch, c.delayQ.PopFront().fn)
		}
		for i, fn := range batch {
			batch[i] = nil // release the closure; the scratch buffer persists
			fn()
		}
		c.fireBatch = batch[:0]
	}
	// Issue pending miss requests.
	for c.mshrQ.Len() > 0 {
		m := *c.mshrQ.Front()
		if !c.backend.ReadLine(m.addr, m.fillFn) {
			break
		}
		m.issued = true
		c.mshrQ.PopFront()
	}
	// Drain writebacks.
	for c.wbQ.Len() > 0 {
		if !c.backend.WriteLine(*c.wbQ.Front()) {
			break
		}
		c.wbQ.PopFront()
		c.Stats.Writebacks++
	}
}

// fill installs a returned line, evicting the LRU way (queueing the victim
// if dirty), and wakes all coalesced waiters. The mshr returns to the pool.
func (c *Cache) fill(m *mshr) {
	la := m.addr
	c.mshrs.Delete(la)
	set, tag := c.index(la)
	ways := c.lines[int(set)*c.ways : int(set)*c.ways+c.ways]
	victim := 0
	for i := range ways {
		ln := &ways[i]
		if !ln.valid {
			victim = i
			break
		}
		if ln.lru < ways[victim].lru {
			victim = i
		}
	}
	v := &ways[victim]
	if v.valid {
		c.Stats.Evictions++
		if v.dirty {
			c.wbQ.PushBack(v.tag << c.offBits)
		}
	} else if c.cfg.WarmStart {
		// Synthesize the steady-state resident this way would hold: the
		// line one cache-size away in the same set. A deterministic
		// address hash decides dirtiness at the configured rate.
		c.Stats.Evictions++
		resident := (tag ^ uint64(c.numSets*c.cfg.Ways)) << c.offBits
		if int((resident*0x9E3779B97F4A7C15)>>32%100) < c.cfg.WarmDirtyPercent {
			c.wbQ.PushBack(resident)
		}
	}
	c.tick++
	*v = line{tag: tag, valid: true, dirty: m.isWrite, lru: c.tick}
	c.mru[set] = uint8(victim)
	for _, w := range m.waiters {
		c.deferResponse(w)
	}
	m.waiters = m.waiters[:0]
	c.mshrFree = append(c.mshrFree, m)
}

// SkipEligible reports whether Tick is a guaranteed no-op until external
// input arrives: no latency-deferred responses, no unissued miss requests,
// no queued writebacks. MSHRs already issued to the backend don't block a
// skip — their fills arrive via the backend's callback, not via Tick.
func (c *Cache) SkipEligible() bool {
	return c.delayQ.Len() == 0 && c.mshrQ.Len() == 0 && c.wbQ.Len() == 0
}

// NoEvent is NextEventCycle's "no internally scheduled event" sentinel.
const NoEvent = ^uint64(0)

// NextEventCycle returns the next cycle (on this cache's own clock) at
// which Tick could do anything, or NoEvent when only external input can.
// Unissued miss requests and queued writebacks retry every cycle; failing
// those, the earliest deferred completion is the next event (the delay
// queue is a constant-latency FIFO, so the front is the minimum). Ticks
// strictly before the returned cycle are pure clock advances, exactly
// what SkipCycles accounts.
func (c *Cache) NextEventCycle() uint64 {
	if c.mshrQ.Len() > 0 || c.wbQ.Len() > 0 {
		return c.now + 1
	}
	if c.delayQ.Len() > 0 {
		return c.delayQ.Front().at
	}
	return NoEvent
}

// SkipCycles advances the cycle counter over n skipped no-op cycles.
func (c *Cache) SkipCycles(n uint64) { c.now += n }

// InertFor reports whether the next n Ticks are provably equivalent to
// SkipCycles(n): the NextEventCycle bound lies beyond them.
func (c *Cache) InertFor(n uint64) bool {
	next := c.NextEventCycle()
	return next == NoEvent || next > c.now+n
}

// OutstandingMisses returns the number of allocated MSHRs.
func (c *Cache) OutstandingMisses() int { return c.mshrs.Len() }

// PendingWritebacks returns queued dirty evictions.
func (c *Cache) PendingWritebacks() int { return c.wbQ.Len() }

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() { c.Stats = Stats{} }

// Busy reports whether the cache still has in-flight work.
func (c *Cache) Busy() bool {
	return c.mshrs.Len() > 0 || c.wbQ.Len() > 0 || c.mshrQ.Len() > 0 || c.delayQ.Len() > 0
}

// AsBackend adapts this cache as the backend of an upper level: upper-level
// fills become accesses here, upper-level writebacks become stores
// (write-allocate, marking lines dirty so they eventually write back to
// memory).
func (c *Cache) AsBackend() Backend { return (*levelBackend)(c) }

type levelBackend Cache

// ReadLine implements Backend for an upper cache level. Hits respond after
// this cache's service latency; misses respond after the fill returns plus
// the latency.
func (b *levelBackend) ReadLine(addr uint64, done func()) bool {
	c := (*Cache)(b)
	switch c.Access(addr, false, done) {
	case Hit:
		c.deferResponse(done)
		return true
	case Miss, MissMerged:
		return true
	default:
		return false
	}
}

// WriteLine implements Backend for an upper cache level.
func (b *levelBackend) WriteLine(addr uint64) bool {
	c := (*Cache)(b)
	switch c.Access(addr, true, nil) {
	case Hit, Miss, MissMerged:
		return true
	default:
		return false
	}
}
