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
	// A way's tag word keeps its flags in the top two bits, so a line
	// address must stay below 2^62; the recency order numbers ways in a
	// byte.
	if c.LineBytes < 4 {
		return fmt.Errorf("cache %s: line size %d below 4 bytes", c.Name, c.LineBytes)
	}
	if c.Ways > 256 {
		return fmt.Errorf("cache %s: %d ways exceed the 256 supported", c.Name, c.Ways)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines < c.Ways {
		return fmt.Errorf("cache %s: %d bytes hold %d lines of %d bytes, fewer than one set of %d ways", c.Name, c.SizeBytes, lines, c.LineBytes, c.Ways)
	}
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

// Access outcomes. Hit means the line is present (a load's done fires after
// the cache's latency, a store completes at once); Miss means a new MSHR
// was allocated and a line fetch starts; MissMerged means the access joined
// an MSHR whose fetch was already in flight (both fire the done callback
// the cache's latency after the fill arrives); Blocked means nothing was
// done and the caller must retry next cycle; Parked (AccessLoad only)
// means the access would allocate a new line fetch but the caller forbade
// allocation — no state was touched and no statistic counted.
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

// A way's tag word is its line address with these flags; an empty way's
// word is 0.
const (
	validBit = 1 << 63
	dirtyBit = 1 << 62
)

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

	// tags and order hold every set's ways contiguously (set s occupies
	// [s*ways, (s+1)*ways) of each). tags[w] is way w's tag word. A set's
	// order entries list its ways from most to least recently used, so
	// the last one is the LRU victim; empty ways start, and stay, at the
	// tail, the lowest-indexed last (see touch).
	tags    []uint64
	order   []uint8
	ways    int
	numSets int
	setMask uint64
	offBits uint

	mshrs    *u64map.Map[*mshr] // in-flight line fetches by line address
	mshrFree []*mshr            // recycled mshr objects
	mshrQ    deque.Deque[*mshr] // MSHRs not yet issued to the backend
	wbQ      deque.Deque[uint64]
	// version moves on every event after which a refused access could get
	// another answer (see Version).
	version uint64

	now    uint64                // cycle counter, advanced by Tick
	delayQ deque.Deque[deferred] // latency-deferred callbacks, FIFO (constant delay)

	Stats Stats
}

// deferred is a callback scheduled for a future cycle.
type deferred struct {
	at uint64
	fn func()
}

// deferResponse schedules fn after the cache's service latency; with zero
// latency fn runs at once, inside the caller. With a constant delay the
// queue stays sorted, so a FIFO suffices.
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
		tags:    make([]uint64, sets*cfg.Ways),
		order:   make([]uint8, sets*cfg.Ways),
		ways:    cfg.Ways,
		numSets: sets,
		setMask: uint64(sets - 1),
		mshrs:   u64map.New[*mshr](cfg.MSHRs),
	}
	for v := cfg.LineBytes; v > 1; v >>= 1 {
		c.offBits++
	}
	// Every set's order starts in descending way index: write the first
	// set's, then double the initialised prefix, a whole number of sets
	// each time.
	for w := 0; w < cfg.Ways; w++ {
		c.order[w] = uint8(cfg.Ways - 1 - w)
	}
	for n := cfg.Ways; n < len(c.order); n *= 2 {
		copy(c.order[n:], c.order[:n])
	}
	// Pre-build the whole mshr pool (MSHRs bounds concurrent occupancy, so
	// acquireMSHR can never need more) with waiter-list slack: the
	// steady-state loop then runs allocation-free from the first cycle
	// instead of ramping each pool to its high-water mark mid-measurement.
	c.mshrFree = make([]*mshr, 0, cfg.MSHRs)
	for i := 0; i < cfg.MSHRs; i++ {
		m := &mshr{waiters: make([]func(), 0, 8)}
		m.fillFn = func() { c.fill(m) }
		c.mshrFree = append(c.mshrFree, m)
	}
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
// write-allocate semantics. A load's done fires when its data is ready:
// LatencyCycles after a hit, or after the fill plus LatencyCycles on a
// miss. A store hit completes at once and fires nothing; a store miss
// fires done after its fill plus LatencyCycles. done may be nil for
// callers that do not need notification.
func (c *Cache) Access(addr uint64, isWrite bool, done func()) Result {
	return c.access(addr, isWrite, true, done)
}

// AccessLoad performs a load whose LSQ-slot admission is decided in the
// same probe: with mayAllocate false, a load that would start a new line
// fetch returns Parked with zero side effects (the CPU parks the load until
// an LSQ slot frees). Hits and coalesced misses proceed regardless, exactly
// as Access(addr, false, done).
func (c *Cache) AccessLoad(addr uint64, mayAllocate bool, done func()) Result {
	return c.access(addr, false, mayAllocate, done)
}

// access is the one access routine behind Access and AccessLoad.
func (c *Cache) access(addr uint64, isWrite, mayAllocate bool, done func()) Result {
	set, tag := c.index(addr)
	if w := c.lookup(set, tag); w >= 0 {
		base := int(set) * c.ways
		c.touch(base, w)
		if isWrite {
			c.tags[base+w] |= dirtyBit
		} else if done != nil {
			c.deferResponse(done)
		}
		c.Stats.Hits++
		return Hit
	}
	// Miss. Coalesce into an existing MSHR if one covers the line.
	la := tag << c.offBits
	if m, ok := c.mshrs.Get(la); ok {
		if done != nil {
			// The waiter slice keeps its capacity when the MSHR is reused.
			m.waiters = append(m.waiters, done)
		}
		m.isWrite = m.isWrite || isWrite
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
	m := c.acquireMSHR(la, isWrite)
	if done != nil {
		// The waiter slice keeps its capacity when the MSHR is reused.
		m.waiters = append(m.waiters, done)
	}
	c.mshrs.Put(la, m)
	c.mshrQ.PushBack(m)
	c.version++
	c.Stats.Misses++
	return Miss
}

// lookup returns the way of the set that holds tag, or -1.
func (c *Cache) lookup(set, tag uint64) int {
	want := tag | validBit
	for w, t := range c.tags[int(set)*c.ways : int(set)*c.ways+c.ways] {
		if t&^dirtyBit == want {
			return w
		}
	}
	return -1
}

// touch makes way w the most recently used of the set whose entries start
// at base. A fill takes the last entry: the least recently touched way
// once the set is full, and before that its lowest-indexed empty way. No
// way is ever emptied, so the empty ones are the set's highest-indexed,
// and the initial descending order keeps them at the tail, lowest index
// last.
func (c *Cache) touch(base, w int) {
	ord := c.order[base : base+c.ways]
	prev := uint8(w)
	for i, o := range ord {
		ord[i] = prev // shift each more recent way back one place
		if o == uint8(w) {
			return
		}
		prev = o
	}
}

// WouldAllocate reports whether an access to addr would start a new line
// fetch (neither present nor already in flight). The CPU asks the same
// question through AccessLoad, which also performs the access in the same
// probe; this is for callers that only want the query.
func (c *Cache) WouldAllocate(addr uint64) bool {
	if c.Probe(addr) {
		return false
	}
	_, inflight := c.mshrs.Get(c.lineAddr(addr))
	return !inflight
}

// Probe reports whether the line is present without touching LRU state.
func (c *Cache) Probe(addr uint64) bool {
	return c.lookup(c.index(addr)) >= 0
}

// Tick advances one cycle of the cache's clock domain: latency-deferred
// responses fire, pending miss requests issue to the backend, and the
// writeback queue drains.
func (c *Cache) Tick() {
	c.now++
	for c.delayQ.Len() > 0 && c.delayQ.Front().at <= c.now {
		c.delayQ.PopFront().fn()
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
		c.version++
		c.Stats.Writebacks++
	}
}

// fill installs a returned line in the set's LRU way, evicting the line
// there (queueing it if dirty), and wakes all coalesced waiters. The mshr
// returns to the pool.
func (c *Cache) fill(m *mshr) {
	la := m.addr
	c.mshrs.Delete(la)
	c.version++
	set, tag := c.index(la)
	base := int(set) * c.ways
	v := int(c.order[base+c.ways-1])
	if old := c.tags[base+v]; old&validBit != 0 {
		c.Stats.Evictions++
		if old&dirtyBit != 0 {
			c.wbQ.PushBack((old &^ (validBit | dirtyBit)) << c.offBits)
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
	c.tags[base+v] = tag | validBit
	if m.isWrite {
		c.tags[base+v] |= dirtyBit
	}
	c.touch(base, v)
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
func (c *Cache) SkipEligible() bool { return c.NextEventCycle() == NoEvent }

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

// Version counts the events after which a refused access could get another
// answer: an MSHR allocated, a fill, a writeback drained. An access's
// answer depends only on the lines, the MSHRs and the writeback queue's
// length, and these events are the only ones that change them. While the
// version stands still, an access the cache refused would be refused
// again; the CPU's replay gate relies on this.
func (c *Cache) Version() uint64 { return c.version }

// AddBlocked charges n refused accesses to Stats.Blocked without probing:
// the CPU's replay gate calls it for loads a repeat probe would refuse.
func (c *Cache) AddBlocked(n uint64) { c.Stats.Blocked += n }

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() { c.Stats = Stats{} }

// AsBackend adapts this cache as the backend of an upper level: upper-level
// fills become accesses here, upper-level writebacks become stores
// (write-allocate, marking lines dirty so they eventually write back to
// memory).
func (c *Cache) AsBackend() Backend { return (*levelBackend)(c) }

type levelBackend Cache

// ReadLine implements Backend for an upper cache level. done fires after
// this cache's service latency on a hit, or after the fill plus the
// latency on a miss.
func (b *levelBackend) ReadLine(addr uint64, done func()) bool {
	return (*Cache)(b).Access(addr, false, done) != Blocked
}

// WriteLine implements Backend for an upper cache level.
func (b *levelBackend) WriteLine(addr uint64) bool {
	return (*Cache)(b).Access(addr, true, nil) != Blocked
}
