package cache

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"burstmem/internal/xrand"
)

// memStub is an immediate-response backend recording traffic.
type memStub struct {
	reads    []uint64
	writes   []uint64
	deferred []func()
	busy     bool // when true, refuse everything
	wbBusy   bool // when true, refuse writebacks
}

func (m *memStub) ReadLine(addr uint64, done func()) bool {
	if m.busy {
		return false
	}
	m.reads = append(m.reads, addr)
	m.deferred = append(m.deferred, done)
	return true
}

func (m *memStub) WriteLine(addr uint64) bool {
	if m.busy || m.wbBusy {
		return false
	}
	m.writes = append(m.writes, addr)
	return true
}

// deliver completes all outstanding fills.
func (m *memStub) deliver() {
	d := m.deferred
	m.deferred = nil
	for _, fn := range d {
		fn()
	}
}

func smallConfig() Config {
	return Config{Name: "t", SizeBytes: 4096, Ways: 2, LineBytes: 64,
		MSHRs: 4, WritebackBuf: 4, LatencyCycles: 0}
}

func mustCache(t *testing.T, cfg Config, b Backend) *Cache {
	t.Helper()
	c, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := L1Config("L1D").Validate(); err != nil {
		t.Fatal(err)
	}
	if err := L2Config().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallConfig()
	bad.LineBytes = 48
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two line accepted")
	}
	bad = smallConfig()
	bad.Ways = 3 // 64 lines / 3 ways not integral
	if err := bad.Validate(); err == nil {
		t.Fatal("non-divisible ways accepted")
	}
	bad = smallConfig()
	bad.MSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero MSHRs accepted")
	}
	// Fewer lines than ways leave no set: zero lines pass both the
	// divisibility and the power-of-two test, and New would index an empty
	// recency order.
	empty := Config{Name: "tiny", SizeBytes: 32, Ways: 1, LineBytes: 64, MSHRs: 1, WritebackBuf: 1}
	if err := empty.Validate(); err == nil || !strings.Contains(err.Error(), "fewer than one set") {
		t.Fatalf("32-byte cache of 64-byte lines: err %v, want the no-set error", err)
	}

	// The tag word and the recency order bound ways and line size: one
	// set of 256 ways fits a byte per way, 257 do not, and a 2-byte line
	// would let a line address reach the flag bits.
	wide := smallConfig()
	wide.Ways, wide.SizeBytes = 256, 256*64
	if err := wide.Validate(); err != nil {
		t.Fatalf("256 ways rejected: %v", err)
	}
	wide.Ways, wide.SizeBytes = 257, 257*64
	if err := wide.Validate(); err == nil || !strings.Contains(err.Error(), "257 ways") {
		t.Fatalf("257 ways: err %v, want the way limit", err)
	}
	bad = smallConfig()
	bad.LineBytes = 2
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "below 4 bytes") {
		t.Fatalf("2-byte lines: err %v, want the line-size limit", err)
	}
}

func TestMissThenHit(t *testing.T) {
	m := &memStub{}
	c := mustCache(t, smallConfig(), m)
	fired := false
	if r := c.Access(0x1000, false, func() { fired = true }); r != Miss {
		t.Fatalf("first access = %v, want miss", r)
	}
	c.Tick() // issue to backend
	if len(m.reads) != 1 || m.reads[0] != 0x1000 {
		t.Fatalf("backend reads: %#v", m.reads)
	}
	m.deliver()
	if !fired {
		t.Fatal("fill callback did not fire")
	}
	if r := c.Access(0x1000, false, nil); r != Hit {
		t.Fatalf("second access = %v, want hit", r)
	}
	if r := c.Access(0x1008, false, nil); r != Hit {
		t.Fatalf("same-line access = %v, want hit", r)
	}
}

func TestMissCoalescing(t *testing.T) {
	m := &memStub{}
	c := mustCache(t, smallConfig(), m)
	var fires int
	done := func() { fires++ }
	if r := c.Access(0x2000, false, done); r != Miss {
		t.Fatal("want primary miss")
	}
	for i := 0; i < 3; i++ {
		if r := c.Access(0x2000+uint64(i*8), false, done); r != MissMerged {
			t.Fatalf("access %d = %v, want merged miss", i, r)
		}
	}
	c.Tick()
	if len(m.reads) != 1 {
		t.Fatalf("%d backend reads, want 1 (coalesced)", len(m.reads))
	}
	m.deliver()
	if fires != 4 {
		t.Fatalf("%d callbacks, want 4", fires)
	}
	if c.Stats.Misses != 1 || c.Stats.Coalesced != 3 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestMSHRLimit(t *testing.T) {
	m := &memStub{}
	c := mustCache(t, smallConfig(), m)
	for i := 0; i < 4; i++ {
		if r := c.Access(uint64(i)<<12, false, nil); r != Miss {
			t.Fatalf("miss %d = %v", i, r)
		}
	}
	if r := c.Access(99<<12, false, nil); r != Blocked {
		t.Fatalf("5th distinct miss = %v, want blocked (4 MSHRs)", r)
	}
	if c.Stats.Misses != 4 || c.Stats.Blocked != 1 {
		t.Fatalf("stats %+v, want 4 misses and 1 blocked", c.Stats)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	m := &memStub{}
	cfg := smallConfig() // 4 KB, 2-way, 64 B lines -> 32 sets
	c := mustCache(t, cfg, m)
	// Write-allocate a line, dirty it, then evict it with two more fills
	// to the same set (set = bits 6.. of the line address; stride 4 KB
	// maps to the same set).
	fill := func(addr uint64, write bool) {
		if r := c.Access(addr, write, nil); r == Blocked {
			t.Fatalf("unexpected block at %#x", addr)
		}
		c.Tick()
		m.deliver()
		c.Tick()
	}
	fill(0x0000, true) // dirty
	fill(0x1000, false)
	fill(0x2000, false) // evicts 0x0000
	c.Tick()
	found := false
	for _, w := range m.writes {
		if w == 0x0000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty victim not written back; writes=%#v evictions=%d", m.writes, c.Stats.Evictions)
	}
	if c.Stats.Writebacks == 0 {
		t.Fatal("writeback not counted")
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	m := &memStub{}
	c := mustCache(t, smallConfig(), m)
	fill := func(addr uint64) {
		c.Access(addr, false, nil)
		c.Tick()
		m.deliver()
		c.Tick()
	}
	fill(0x0000)
	fill(0x1000)
	fill(0x2000)
	c.Tick()
	if len(m.writes) != 0 {
		t.Fatalf("clean eviction produced writebacks: %#v", m.writes)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	m := &memStub{}
	c := mustCache(t, smallConfig(), m)
	fill := func(addr uint64) {
		c.Access(addr, false, nil)
		c.Tick()
		m.deliver()
		c.Tick()
	}
	fill(0x0000)
	fill(0x1000)
	// Touch 0x0000 so 0x1000 is LRU.
	if r := c.Access(0x0000, false, nil); r != Hit {
		t.Fatal("expected hit")
	}
	fill(0x2000) // should evict 0x1000
	if !c.Probe(0x0000) {
		t.Fatal("recently used line evicted")
	}
	if c.Probe(0x1000) {
		t.Fatal("LRU line survived")
	}
}

// stampLRU is the replacement rule the cache had when every line carried a
// last-touch stamp: hits and fills stamp their way from a counter, and a
// fill takes the set's first empty way, else the way with the lowest
// stamp. A zero stamp marks an empty way.
type stampLRU struct {
	ways    int
	setMask uint64
	line    []uint64 // line address held by each way
	dirty   []bool
	stamp   []uint64
	tick    uint64
}

func newStampLRU(sets, ways int) *stampLRU {
	return &stampLRU{ways: ways, setMask: uint64(sets - 1), line: make([]uint64, sets*ways),
		dirty: make([]bool, sets*ways), stamp: make([]uint64, sets*ways)}
}

// find returns the way index that holds line, or -1.
func (m *stampLRU) find(line uint64) int {
	base := int(line&m.setMask) * m.ways
	for w := base; w < base+m.ways; w++ {
		if m.stamp[w] != 0 && m.line[w] == line {
			return w
		}
	}
	return -1
}

func (m *stampLRU) touch(w int) {
	m.tick++
	m.stamp[w] = m.tick
}

// fill installs line and reports the line it evicted, if the way held one.
func (m *stampLRU) fill(line uint64, dirty bool) (victim uint64, evicted, victimDirty bool) {
	base := int(line&m.setMask) * m.ways
	v := base
	for w := base; w < base+m.ways; w++ {
		if m.stamp[w] == 0 {
			v = w
			break
		}
		if m.stamp[w] < m.stamp[v] {
			v = w
		}
	}
	victim, evicted, victimDirty = m.line[v], m.stamp[v] != 0, m.dirty[v]
	m.line[v], m.dirty[v] = line, dirty
	m.touch(v)
	return victim, evicted, victimDirty
}

// TestLRUMatchesStampReference drives a 16-way and a 2-way cache of four
// sets with a seeded stream of loads and stores over 1.5 times their
// capacity, delivering each fetched line at a random later step and in
// random order, and checks every step against stampLRU: each access's
// outcome, each fill's victim, every dirty writeback address in order, and
// Probe of every line the stream uses.
func TestLRUMatchesStampReference(t *testing.T) {
	for _, ways := range []int{16, 2} {
		t.Run(fmt.Sprintf("%dway", ways), func(t *testing.T) {
			const sets, lineBytes = 4, 64
			cfg := Config{Name: "lru", SizeBytes: sets * ways * lineBytes, Ways: ways, LineBytes: lineBytes,
				MSHRs: 4, WritebackBuf: 2}
			mem := &memStub{}
			c := mustCache(t, cfg, mem)
			ref := newStampLRU(sets, ways)
			pending := map[uint64]bool{} // line fetches in flight: whether a store merged
			var wantWrites []uint64
			queued, evictions := 0, uint64(0)
			rng := xrand.New(uint64(ways))
			lines := sets * (ways + ways/2 + 1)
			for step := 0; step < 20000; step++ {
				line := uint64(rng.Intn(lines))
				addr := line*lineBytes + uint64(rng.Intn(lineBytes))
				isWrite := rng.Intn(3) == 0
				var want Result
				if w := ref.find(line); w >= 0 {
					want = Hit
					ref.touch(w)
					ref.dirty[w] = ref.dirty[w] || isWrite
				} else if store, ok := pending[line]; ok {
					want = MissMerged
					pending[line] = store || isWrite
				} else if len(pending) >= cfg.MSHRs || queued >= cfg.WritebackBuf {
					want = Blocked
				} else {
					want = Miss
					pending[line] = isWrite
				}
				if got := c.Access(addr, isWrite, nil); got != want {
					t.Fatalf("step %d: access %#x (write %v) = %v, want %v", step, addr, isWrite, got, want)
				}

				c.Tick() // misses go to the backend, writebacks drain
				queued = 0
				if !slices.Equal(mem.writes, wantWrites) {
					t.Fatalf("step %d: writebacks %#x, want %#x", step, mem.writes, wantWrites)
				}

				for k := rng.Intn(3); k > 0 && len(mem.deferred) > 0; k-- {
					i := rng.Intn(len(mem.deferred))
					la, done := mem.reads[i], mem.deferred[i]
					mem.reads = slices.Delete(mem.reads, i, i+1)
					mem.deferred = slices.Delete(mem.deferred, i, i+1)
					victim, evicted, dirty := ref.fill(la/lineBytes, pending[la/lineBytes])
					delete(pending, la/lineBytes)
					done()
					if evicted {
						evictions++
						if c.Probe(victim * lineBytes) {
							t.Fatalf("step %d: fill of %#x kept %#x, the reference's victim", step, la, victim*lineBytes)
						}
						if dirty {
							wantWrites = append(wantWrites, victim*lineBytes)
							queued++
						}
					}
				}
				if c.Stats.Evictions != evictions {
					t.Fatalf("step %d: %d evictions, want %d", step, c.Stats.Evictions, evictions)
				}
				for l := uint64(0); l < uint64(lines); l++ {
					if got, want := c.Probe(l*lineBytes), ref.find(l) >= 0; got != want {
						t.Fatalf("step %d: Probe(%#x) = %v, want %v", step, l*lineBytes, got, want)
					}
				}
			}
			if c.Stats.Hits == 0 || c.Stats.Blocked == 0 || c.Stats.Coalesced == 0 || len(wantWrites) == 0 {
				t.Fatalf("stream missed a path: stats %+v, %d writebacks", c.Stats, len(wantWrites))
			}
		})
	}
}

// TestWritebackBackpressure: a full writeback queue blocks new misses even
// with every MSHR free, and a drain moves Version, after which the same
// access misses. The CPU's replay gate relies on both.
func TestWritebackBackpressure(t *testing.T) {
	m := &memStub{}
	cfg := smallConfig()
	cfg.WritebackBuf = 2
	c := mustCache(t, cfg, m)
	fill := func(addr uint64, write bool) {
		t.Helper()
		if r := c.Access(addr, write, nil); r != Miss {
			t.Fatalf("access %#x = %v, want miss", addr, r)
		}
		c.Tick() // the miss goes to the backend
		m.deliver()
	}
	// Dirty both ways of set 0, then evict them with two loads to the same
	// set while the backend refuses writebacks: the queue holds two lines.
	fill(0x0000, true)
	fill(0x1000, true)
	m.wbBusy = true
	fill(0x2000, false)
	fill(0x3000, false)
	c.Tick()
	if c.Stats.Evictions != 2 || c.Stats.Writebacks != 0 || len(m.writes) != 0 {
		t.Fatalf("after two dirty evictions: stats %+v, %d writes; want 2 evictions queued, none written", c.Stats, len(m.writes))
	}

	const next = 0x40 // another set, no MSHR in use
	if r := c.Access(next, false, nil); r != Blocked {
		t.Fatalf("miss with a full writeback queue = %v, want blocked", r)
	}
	if c.Stats.Blocked != 1 {
		t.Fatalf("Stats.Blocked = %d, want 1", c.Stats.Blocked)
	}
	version := c.Version()
	m.wbBusy = false
	c.Tick()
	if c.Stats.Writebacks != 2 || len(m.writes) != 2 || m.writes[0] != 0x0000 || m.writes[1] != 0x1000 {
		t.Fatalf("after the drain: %d writebacks, writes %#x; want 2: 0x0, 0x1000", c.Stats.Writebacks, m.writes)
	}
	if c.Version() == version {
		t.Fatal("draining the writeback queue did not move Version")
	}
	if r := c.Access(next, false, nil); r != Miss {
		t.Fatalf("the same access after the drain = %v, want miss", r)
	}
}

func TestWouldAllocate(t *testing.T) {
	m := &memStub{}
	c := mustCache(t, smallConfig(), m)
	if !c.WouldAllocate(0x4000) {
		t.Fatal("cold line should allocate")
	}
	c.Access(0x4000, false, nil)
	if c.WouldAllocate(0x4000) {
		t.Fatal("in-flight line should not allocate")
	}
	c.Tick()
	m.deliver()
	if c.WouldAllocate(0x4000) {
		t.Fatal("present line should not allocate")
	}
}

func TestLatencyDefersResponses(t *testing.T) {
	m := &memStub{}
	cfg := smallConfig()
	cfg.LatencyCycles = 5
	c := mustCache(t, cfg, m)
	fired := false
	c.Access(0x1000, false, func() { fired = true })
	c.Tick()
	m.deliver() // data arrives; response still latency-deferred
	if fired {
		t.Fatal("response fired with zero latency")
	}
	for i := 0; i < 5; i++ {
		if fired {
			t.Fatalf("response fired after %d cycles, want 5", i)
		}
		c.Tick()
	}
	if !fired {
		t.Fatal("response never fired")
	}
}

// TestDoneFiresWhenDataReady pins the completion contract: a load hit
// fires done after exactly LatencyCycles Ticks, a store hit completes at
// once and never fires it, and a miss fires after its fill plus
// LatencyCycles.
func TestDoneFiresWhenDataReady(t *testing.T) {
	m := &memStub{}
	cfg := smallConfig()
	cfg.LatencyCycles = 3
	c := mustCache(t, cfg, m)
	fires := 0
	done := func() { fires++ }
	// waitFire ticks the cache and requires done to fire on exactly the
	// third Tick.
	waitFire := func(what string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if fires != 0 {
				t.Fatalf("%s: done fired after %d Ticks, want 3", what, i)
			}
			c.Tick()
		}
		if fires != 1 {
			t.Fatalf("%s: done fired %d times after 3 Ticks, want once", what, fires)
		}
		fires = 0
	}

	if r := c.Access(0x1000, false, done); r != Miss {
		t.Fatalf("cold load = %v, want miss", r)
	}
	c.Tick() // the miss goes to the backend
	m.deliver()
	waitFire("load miss")

	if r := c.AccessLoad(0x1000, true, done); r != Hit {
		t.Fatalf("AccessLoad of a present line = %v, want hit", r)
	}
	waitFire("AccessLoad hit")
	if r := c.Access(0x1008, false, done); r != Hit {
		t.Fatalf("load of a present line = %v, want hit", r)
	}
	waitFire("load hit")

	if r := c.Access(0x1000, true, done); r != Hit {
		t.Fatalf("store to a present line = %v, want hit", r)
	}
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if fires != 0 {
		t.Fatalf("store hit fired done %d times, want never", fires)
	}
}

func TestAsBackendChainsLevels(t *testing.T) {
	m := &memStub{}
	l2 := mustCache(t, smallConfig(), m)
	l1cfg := smallConfig()
	l1cfg.SizeBytes = 1024
	l1 := mustCache(t, l1cfg, l2.AsBackend())
	fired := false
	if r := l1.Access(0x8000, false, func() { fired = true }); r != Miss {
		t.Fatal("want L1 miss")
	}
	l1.Tick() // L1 miss -> L2 access (miss) -> MSHR
	l2.Tick() // L2 issues to memory
	m.deliver()
	l2.Tick()
	l1.Tick()
	if !fired {
		t.Fatal("two-level fill did not complete")
	}
	if r := l2.Access(0x8000, false, nil); r != Hit {
		t.Fatal("L2 did not keep the line")
	}
}

// TestLineAddrProperty: lineAddr is idempotent and aligned.
func TestLineAddrProperty(t *testing.T) {
	c := mustCache(t, smallConfig(), &memStub{})
	f := func(addr uint64) bool {
		la := c.lineAddr(addr)
		return la%64 == 0 && c.lineAddr(la) == la && la <= addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSetIndexProperty: same line -> same set; distinct sets partition
// lines.
func TestSetIndexProperty(t *testing.T) {
	c := mustCache(t, smallConfig(), &memStub{})
	f := func(addr uint64) bool {
		s1, t1 := c.index(addr)
		s2, t2 := c.index(addr ^ 0x3F) // same line, different offset
		return s1 == s2 && t1 == t2 && s1 < uint64(c.numSets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMissRateStat(t *testing.T) {
	m := &memStub{}
	c := mustCache(t, smallConfig(), m)
	c.Access(0x0, false, nil)
	c.Tick()
	m.deliver()
	c.Access(0x0, false, nil)
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", got)
	}
	c.ResetStats()
	if c.Stats.MissRate() != 0 {
		t.Fatal("reset did not clear stats")
	}
}
