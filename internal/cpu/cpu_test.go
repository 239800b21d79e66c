package cpu

import (
	"testing"

	"burstmem/internal/cache"
	"burstmem/internal/workload"
)

// scriptGen replays a fixed op sequence, then pads with non-memory ops.
type scriptGen struct {
	ops []workload.Op
	i   int
}

func (g *scriptGen) Name() string { return "script" }
func (g *scriptGen) Next() workload.Op {
	if g.i < len(g.ops) {
		op := g.ops[g.i]
		g.i++
		return op
	}
	return workload.Op{Type: workload.OpNonMem}
}

// stubMem is a scriptable memory port: every access misses and completes
// when the test calls release, or, with hitAll, hits a zero-latency cache
// (a load's done fires inside the access).
type stubMem struct {
	pending []func()
	blocked bool
	hitAll  bool

	loads, stores int
}

func (m *stubMem) Access(addr uint64, isWrite bool, done func()) cache.Result {
	if m.blocked {
		return cache.Blocked
	}
	if isWrite {
		m.stores++
	} else {
		m.loads++
	}
	if m.hitAll {
		if !isWrite && done != nil {
			done()
		}
		return cache.Hit
	}
	m.pending = append(m.pending, done)
	return cache.Miss
}

// AccessLoad treats every load as a new line fetch: it parks the load
// when it may not allocate and otherwise performs it.
func (m *stubMem) AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result {
	if !mayAllocate {
		return cache.Parked
	}
	return m.Access(addr, false, done)
}

func (m *stubMem) release() {
	p := m.pending
	m.pending = nil
	for _, fn := range p {
		if fn != nil {
			fn()
		}
	}
}

// gateMem is a stubMem with the refusal-gate port. It counts its load and
// store probes and the refusals it charged, probed or in bulk; its version
// moves only when a test bumps it.
type gateMem struct {
	stubMem
	version     uint64
	probes      int // loads
	storeProbes int
	refusals    uint64
}

func (m *gateMem) AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result {
	m.probes++
	return m.refuse(m.stubMem.AccessLoad(addr, mayAllocate, done))
}

// Access is the store path: the CPU probes loads through AccessLoad only.
func (m *gateMem) Access(addr uint64, isWrite bool, done func()) cache.Result {
	m.storeProbes++
	return m.refuse(m.stubMem.Access(addr, isWrite, done))
}

func (m *gateMem) refuse(r cache.Result) cache.Result {
	if r == cache.Blocked {
		m.refusals++
	}
	return r
}

func (m *gateMem) Version() uint64     { return m.version }
func (m *gateMem) AddBlocked(n uint64) { m.refusals += n }

// refusedLoads builds a CPU whose four independent loads the cache refuses,
// ticked until a replay walk has issued nothing and closed the gate: the
// first tick dispatches the loads, the second walks them.
func refusedLoads(t *testing.T) (*CPU, *gateMem) {
	t.Helper()
	mem := &gateMem{stubMem: stubMem{blocked: true}}
	var ops []workload.Op
	for i := 0; i < 4; i++ {
		ops = append(ops, workload.Op{Type: workload.OpLoad, Addr: uint64(i) << 12})
	}
	c := newCPU(t, DefaultConfig(), &scriptGen{ops: ops}, mem)
	c.Tick()
	c.Tick()
	if !c.gated || c.refused != 4 || mem.refusals != 8 {
		t.Fatalf("after dispatch and one walk: gated %v, %d refusals recorded, %d charged; want true, 4, 8",
			c.gated, c.refused, mem.refusals)
	}
	return c, mem
}

// chainThenRefused builds a CPU whose chain head misses, whose next load
// depends on the head, and whose four independent loads after them the
// cache refuses, ticked until the gate has closed on those four refusals:
// the first tick dispatches the head and its dependent, the second walks
// the dependent and dispatches the refused loads.
func chainThenRefused(t *testing.T) (*CPU, *gateMem) {
	t.Helper()
	ops := []workload.Op{
		{Type: workload.OpLoad, Addr: 0x1000},
		{Type: workload.OpLoad, Addr: 0x2000, DepOnPrevLoad: true},
	}
	for len(ops) < DefaultConfig().Width {
		ops = append(ops, workload.Op{Type: workload.OpNonMem})
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, workload.Op{Type: workload.OpLoad, Addr: uint64(0x10+i) << 12})
	}
	mem := &gateMem{}
	c := newCPU(t, DefaultConfig(), &scriptGen{ops: ops}, mem)
	c.Tick()
	mem.blocked = true
	c.Tick()
	if !c.gated || c.refused != 4 || len(c.pending) != 5 || len(mem.pending) != 1 {
		t.Fatalf("after two ticks: gated %v, %d refusals recorded, %d loads pending, %d misses; want true, 4, 5, 1",
			c.gated, c.refused, len(c.pending), len(mem.pending))
	}
	return c, mem
}

// refusedStore builds a CPU whose one store the cache refuses, ticked until
// the store gate has closed: the first tick dispatches the store, the
// second retires it into the store buffer, the third probes it.
func refusedStore(t *testing.T) (*CPU, *gateMem) {
	t.Helper()
	mem := &gateMem{stubMem: stubMem{blocked: true}}
	c := newCPU(t, DefaultConfig(), &scriptGen{ops: []workload.Op{{Type: workload.OpStore, Addr: 0x1000}}}, mem)
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	if !c.sbGated || mem.storeProbes != 1 || mem.refusals != 1 {
		t.Fatalf("after three ticks: store gated %v, %d store probes, %d refusals; want true, 1, 1",
			c.sbGated, mem.storeProbes, mem.refusals)
	}
	return c, mem
}

func newCPU(t *testing.T, cfg Config, gen workload.Generator, mem Mem) *CPU {
	t.Helper()
	c, err := New(cfg, gen, mem)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero ROB accepted")
	}
	if _, err := New(bad, &scriptGen{}, &stubMem{}); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

// TestNonMemThroughput: pure compute retires at full width.
func TestNonMemThroughput(t *testing.T) {
	c := newCPU(t, DefaultConfig(), &scriptGen{}, &stubMem{hitAll: true})
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	// Width 8, 100 cycles, minus pipeline fill.
	if c.Retired() < 8*99-16 {
		t.Fatalf("retired %d of ~%d", c.Retired(), 8*100)
	}
	if got := c.Stats.IPC(); got < 7.5 {
		t.Fatalf("IPC %v, want ~8 on pure compute", got)
	}
}

// TestLoadMissBlocksRetirement: an incomplete load at the ROB head stalls
// retirement until the miss returns.
func TestLoadMissBlocksRetirement(t *testing.T) {
	mem := &stubMem{}
	gen := &scriptGen{ops: []workload.Op{{Type: workload.OpLoad, Addr: 0x1000}}}
	c := newCPU(t, DefaultConfig(), gen, mem)
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	// The load is at the head, incomplete: only instructions before it
	// retired (none), so retirement is stuck at 0.
	if c.Retired() != 0 {
		t.Fatalf("retired %d with load outstanding", c.Retired())
	}
	if c.Stats.HeadLoadStalls == 0 {
		t.Fatal("head-load stalls not counted")
	}
	mem.release()
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if c.Retired() == 0 {
		t.Fatal("retirement did not resume after fill")
	}
}

// TestMLP: independent load misses issue concurrently (ROB window exposes
// memory-level parallelism).
func TestMLP(t *testing.T) {
	mem := &stubMem{}
	var ops []workload.Op
	for i := 0; i < 16; i++ {
		ops = append(ops, workload.Op{Type: workload.OpLoad, Addr: uint64(i) << 12})
	}
	c := newCPU(t, DefaultConfig(), &scriptGen{ops: ops}, mem)
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if len(mem.pending) < 16 {
		t.Fatalf("%d concurrent misses, want 16 (no MLP)", len(mem.pending))
	}
}

// TestDependentLoadsSerialize: chase loads wait for the previous load.
func TestDependentLoadsSerialize(t *testing.T) {
	mem := &stubMem{}
	ops := []workload.Op{
		{Type: workload.OpLoad, Addr: 0x1000},
		{Type: workload.OpLoad, Addr: 0x2000, DepOnPrevLoad: true},
		{Type: workload.OpLoad, Addr: 0x3000, DepOnPrevLoad: true},
	}
	c := newCPU(t, DefaultConfig(), &scriptGen{ops: ops}, mem)
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if len(mem.pending) != 1 {
		t.Fatalf("%d outstanding, want 1 (chain serialized)", len(mem.pending))
	}
	mem.release()
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if len(mem.pending) != 1 {
		t.Fatalf("%d outstanding after first fill, want 1 (second link)", len(mem.pending))
	}
}

// TestLSQBoundsOutstandingFetches: distinct outstanding misses are capped
// by LSQSize.
func TestLSQBoundsOutstandingFetches(t *testing.T) {
	mem := &stubMem{}
	cfg := DefaultConfig()
	cfg.LSQSize = 4
	cfg.ROBSize = 64
	var ops []workload.Op
	for i := 0; i < 32; i++ {
		ops = append(ops, workload.Op{Type: workload.OpLoad, Addr: uint64(i) << 12})
	}
	c := newCPU(t, cfg, &scriptGen{ops: ops}, mem)
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if len(mem.pending) != 4 {
		t.Fatalf("%d outstanding fetches, want LSQ limit 4", len(mem.pending))
	}
}

// TestStoreBufferBackpressure: when the memory port blocks stores, the
// store buffer fills and retirement of stores stalls.
func TestStoreBufferBackpressure(t *testing.T) {
	mem := &stubMem{hitAll: true}
	cfg := DefaultConfig()
	cfg.StoreBufSize = 2
	var ops []workload.Op
	for i := 0; i < 32; i++ {
		ops = append(ops, workload.Op{Type: workload.OpStore, Addr: uint64(i) << 12})
	}
	c := newCPU(t, cfg, &scriptGen{ops: ops}, mem)
	c.Tick()
	mem.blocked = true // memory refuses: writeback path saturated
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	if c.Stats.StoreBufFullStalls == 0 {
		t.Fatal("store-buffer stalls not observed under blocked memory")
	}
	before := c.Retired()
	mem.blocked = false
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	if c.Retired() <= before {
		t.Fatal("retirement did not resume after unblocking")
	}
}

// TestROBFullStalls: a never-completing load eventually fills the ROB and
// dispatch stops.
func TestROBFullStalls(t *testing.T) {
	mem := &stubMem{}
	gen := &scriptGen{ops: []workload.Op{{Type: workload.OpLoad, Addr: 0x1000}}}
	cfg := DefaultConfig()
	cfg.ROBSize = 16
	c := newCPU(t, cfg, gen, mem)
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	if c.Stats.ROBFullCycles == 0 {
		t.Fatal("ROB-full stalls not counted")
	}
}

// TestResetStatsKeepsTiming: resetting statistics does not disturb
// in-flight timing. The load hits a real L1D with latency 3, so its
// completion is still pending in the cache when the window opens.
func TestResetStatsKeepsTiming(t *testing.T) {
	l1, _ := warmL1D(t, 3, 64)
	c := newCPU(t, DefaultConfig(), &scriptGen{ops: []workload.Op{{Type: workload.OpLoad, Addr: 64}}}, l1)
	l1.Tick()
	c.Tick() // the load hits; its completion is due 3 cycles later
	if l1.Stats.Hits != 1 || c.rob[0].done {
		t.Fatalf("after the first tick: %d L1D hits, load done %v; want 1 hit, not done", l1.Stats.Hits, c.rob[0].done)
	}
	c.ResetStats()
	for i := 0; i < 10; i++ {
		l1.Tick()
		c.Tick()
	}
	if c.Retired() == 0 {
		t.Fatal("deferred completion lost across ResetStats")
	}
	if c.Stats.Cycles != 10 {
		t.Fatalf("cycles after reset = %d, want 10", c.Stats.Cycles)
	}
}

// TestZeroLatencyHitRetires: a zero-latency L1D fires a hit's done inside
// AccessLoad, before the access returns. The CPU records the issue first,
// so the firing completes the load; recorded afterwards, loadReturned
// would take it for a stale firing and the load would never retire.
func TestZeroLatencyHitRetires(t *testing.T) {
	l1, _ := warmL1D(t, 0, 64)
	c := newCPU(t, DefaultConfig(), &scriptGen{ops: []workload.Op{{Type: workload.OpLoad, Addr: 64}}}, l1)
	for i := 0; i < 4; i++ {
		l1.Tick()
		c.Tick()
	}
	if l1.Stats.Hits != 1 {
		t.Fatalf("%d L1D hits, want 1", l1.Stats.Hits)
	}
	if c.Retired() == 0 {
		t.Fatal("the load that hit never retired")
	}
}

// fillMem is a cache backend that holds line fills until deliver.
type fillMem struct{ fills []func() }

func (m *fillMem) ReadLine(addr uint64, done func()) bool {
	m.fills = append(m.fills, done)
	return true
}

func (m *fillMem) WriteLine(addr uint64) bool { return true }

func (m *fillMem) deliver() {
	fills := m.fills
	m.fills = nil
	for _, fill := range fills {
		fill()
	}
}

// warmL1D builds a Table 3 L1D with the given hit latency whose lines at
// addrs are already present, over a backend that holds later fills until
// the test delivers them.
func warmL1D(t *testing.T, latency int, addrs ...uint64) (*cache.Cache, *fillMem) {
	t.Helper()
	cfg := cache.L1Config("L1D")
	cfg.LatencyCycles = latency
	mem := &fillMem{}
	l1, err := cache.New(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		l1.Access(addr, false, nil)
	}
	l1.Tick() // the misses go to the backend
	mem.deliver()
	for _, addr := range addrs {
		if !l1.Probe(addr) {
			t.Fatalf("line %#x not present after its fill", addr)
		}
	}
	l1.ResetStats()
	return l1, mem
}

// TestReplayGateChargesRefusals: while the gate is closed, each tick
// charges the recorded refusals without probing the cache (the probe count
// is asserted only when the invariants shadow check, which re-walks, is
// off); a version bump makes the next tick probe again.
func TestReplayGateChargesRefusals(t *testing.T) {
	c, mem := refusedLoads(t)
	for i := 0; i < 5; i++ {
		probes, refusals := mem.probes, mem.refusals
		c.Tick()
		if got := mem.refusals - refusals; got != 4 {
			t.Fatalf("closed gate charged %d refusals on tick %d, want 4", got, i)
		}
		if !c.shadow.armed() && mem.probes != probes {
			t.Fatalf("closed gate probed the cache %d times on tick %d", mem.probes-probes, i)
		}
	}
	mem.version++
	probes, refusals := mem.probes, mem.refusals
	c.Tick()
	if mem.probes-probes != 4 || mem.refusals-refusals != 4 {
		t.Fatalf("tick after a version bump: %d probes, %d refusals; want 4 and 4",
			mem.probes-probes, mem.refusals-refusals)
	}
	mem.blocked = false
	mem.version++
	c.Tick()
	if len(c.pending) != 0 || len(mem.pending) != 4 {
		t.Fatalf("after the cache accepts: %d loads pending, %d misses; want 0 and 4", len(c.pending), len(mem.pending))
	}
}

// TestReplayGateWakesDependent: a completion that resolves one load's
// address wakes only that load. Releasing the chain head probes the cache
// once, for its dependent, and charges the refusals a walk would have:
// the four recorded ones and the dependent's own. A reopened gate would
// re-probe all five loads (the probe count is asserted only when the
// invariants shadow check, which re-walks, is off).
func TestReplayGateWakesDependent(t *testing.T) {
	c, mem := chainThenRefused(t)
	mem.release()
	probes, refusals := mem.probes, mem.refusals
	c.Tick()
	if !c.shadow.armed() && mem.probes-probes != 1 {
		t.Fatalf("replay after the head completed probed the cache %d times, want 1 (the dependent)", mem.probes-probes)
	}
	if got := mem.refusals - refusals; got != 5 {
		t.Fatalf("replay after the head completed charged %d refusals, want 5", got)
	}
	if !c.gated || c.refused != 5 || len(c.pending) != 5 {
		t.Fatalf("after that replay: gated %v, %d refusals recorded, %d loads pending; want true, 5, 5",
			c.gated, c.refused, len(c.pending))
	}
}

// TestReplayGateZeroLatencyChain: a chain of dependent loads that all hit a
// zero-latency L1D issues whole in the replay where its head completes, as
// a walk would: each hit fires done inside AccessLoad, waking the next link
// the walk visits next.
func TestReplayGateZeroLatencyChain(t *testing.T) {
	l1, backend := warmL1D(t, 0, 0x40, 0x80, 0xc0)
	ops := []workload.Op{{Type: workload.OpLoad, Addr: 0x10000}}
	for _, addr := range []uint64{0x40, 0x80, 0xc0} {
		ops = append(ops, workload.Op{Type: workload.OpLoad, Addr: addr, DepOnPrevLoad: true})
	}
	c := newCPU(t, DefaultConfig(), &scriptGen{ops: ops}, l1)
	for i := 0; i < 2; i++ {
		l1.Tick()
		c.Tick()
	}
	if !c.gated || len(c.pending) != 3 || len(backend.fills) != 1 {
		t.Fatalf("before the head's fill: gated %v, %d loads pending, %d fills; want true, 3, 1", c.gated, len(c.pending), len(backend.fills))
	}
	backend.deliver()
	l1.Tick()
	c.Tick()
	if l1.Stats.Hits != 3 || len(c.pending) != 0 || c.Stats.LoadsIssued != 4 {
		t.Fatalf("replay after the head completed: %d L1D hits, %d loads pending, %d issued; want 3, 0, 4",
			l1.Stats.Hits, len(c.pending), c.Stats.LoadsIssued)
	}
	if !c.gated {
		t.Fatal("the woken chain reopened the gate")
	}
}

// TestStoreGateChargesRefusal: while the store gate is closed, each tick
// charges the refused store's refusal without probing the cache (the probe
// count is asserted only when the invariants shadow check, which
// re-probes, is off); a version bump makes the next tick probe again, and
// once the cache accepts, the store issues and the gate opens.
func TestStoreGateChargesRefusal(t *testing.T) {
	c, mem := refusedStore(t)
	for i := 0; i < 5; i++ {
		probes, refusals := mem.storeProbes, mem.refusals
		c.Tick()
		if got := mem.refusals - refusals; got != 1 {
			t.Fatalf("closed store gate charged %d refusals on tick %d, want 1", got, i)
		}
		if !c.shadow.armed() && mem.storeProbes != probes {
			t.Fatalf("closed store gate probed the cache %d times on tick %d", mem.storeProbes-probes, i)
		}
	}
	mem.version++
	probes, refusals := mem.storeProbes, mem.refusals
	c.Tick()
	if mem.storeProbes-probes != 1 || mem.refusals-refusals != 1 || !c.sbGated {
		t.Fatalf("tick after a version bump: %d store probes, %d refusals, gated %v; want 1, 1, true",
			mem.storeProbes-probes, mem.refusals-refusals, c.sbGated)
	}
	mem.blocked = false
	mem.version++
	c.Tick()
	if c.sbGated || c.sbIssued != 1 || mem.stores != 1 {
		t.Fatalf("after the cache accepts: gated %v, %d stores issued, %d accepted; want false, 1, 1",
			c.sbGated, c.sbIssued, mem.stores)
	}
}

// TestGatedStallChargesInBulk: a CPU whose ROB is full behind a refused
// load at its head, with four refused loads behind the replay gate and a
// refused store behind the store gate, does nothing but charge refusals.
// It is skip-eligible, and SkipCycles(n) and each stalled tick charge five
// refusals a cycle without probing; a version move ends the stall, and the
// next tick probes the store and the loads again. Under -tags invariants
// both gates are work, since the shadow checks probe them.
func TestGatedStallChargesInBulk(t *testing.T) {
	ops := []workload.Op{{Type: workload.OpStore, Addr: 0x100}}
	for i := 0; i < 4; i++ {
		ops = append(ops, workload.Op{Type: workload.OpLoad, Addr: uint64(i+1) << 12})
	}
	mem := &gateMem{stubMem: stubMem{blocked: true}}
	c := newCPU(t, DefaultConfig(), &scriptGen{ops: ops}, mem)
	for c.count < c.cfg.ROBSize {
		c.Tick()
	}
	c.Tick() // dispatch finds the ROB full
	if !c.sbGated || !c.gated || c.refused != 4 {
		t.Fatalf("ROB full: store gated %v, replay gated %v, %d refusals recorded; want true, true, 4", c.sbGated, c.gated, c.refused)
	}
	if got, want := c.SkipEligible(), !c.shadow.armed(); got != want {
		t.Fatalf("SkipEligible %v with both gates holding, want %v", got, want)
	}
	if c.shadow.armed() {
		return
	}
	probes := mem.probes + mem.storeProbes
	refusals, stalls := mem.refusals, c.Stats.HeadLoadStalls
	c.SkipCycles(10)
	c.Tick()
	if got := mem.refusals - refusals; got != 55 {
		t.Fatalf("SkipCycles(10) and a stalled tick charged %d refusals, want 55", got)
	}
	if mem.probes+mem.storeProbes != probes || c.Stats.HeadLoadStalls-stalls != 11 {
		t.Fatalf("stalled: %d probes, %d head-load stalls; want 0 and 11", mem.probes+mem.storeProbes-probes, c.Stats.HeadLoadStalls-stalls)
	}
	mem.version++
	if c.SkipEligible() {
		t.Fatal("still skip-eligible after the version moved")
	}
	refusals = mem.refusals
	c.Tick()
	if got := mem.probes + mem.storeProbes - probes; got != 5 {
		t.Fatalf("tick after a version move probed %d times, want 5 (the store and four loads)", got)
	}
	if mem.refusals-refusals != 5 || !c.SkipEligible() {
		t.Fatalf("tick after a version move: %d refusals, skip-eligible %v; want 5, true", mem.refusals-refusals, c.SkipEligible())
	}
}
