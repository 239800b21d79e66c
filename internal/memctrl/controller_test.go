package memctrl

import (
	"math/bits"
	"testing"
	"testing/quick"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
)

// fifoMech is a minimal mechanism used to exercise the chassis in
// isolation: a single FIFO, one bank ongoing at a time, oldest-first.
type fifoMech struct {
	host   *Host
	engine *Engine
	queue  []*Access
}

func newFifo(h *Host) Mechanism {
	return &fifoMech{host: h, engine: NewEngine(h, nil)}
}

func (m *fifoMech) Name() string                  { return "fifo" }
func (m *fifoMech) ForwardsWrites() bool          { return true }
func (m *fifoMech) Pending() (int, int)           { return m.host.Pending() }
func (m *fifoMech) Enqueue(a *Access, now uint64) { m.queue = append(m.queue, a) }

func (m *fifoMech) Tick(now uint64) {
	if len(m.queue) > 0 {
		a := m.queue[0]
		r, b := int(a.Loc.Rank), int(a.Loc.Bank)
		if m.engine.Ongoing(r, b) == nil {
			m.engine.SetOngoing(r, b, a)
			m.queue = m.queue[1:]
		}
	}
	cl, any := m.engine.Unblocked(now)
	if !any {
		return
	}
	for r := range cl.ColRead {
		if mask := cl.Rank(r); mask != 0 {
			m.engine.Issue(r, bits.TrailingZeros64(mask), now)
			return
		}
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Timing.TREFI = 0
	cfg.Geometry = addrmap.Geometry{
		Channels: 1, Ranks: 1, Banks: 4, Rows: 16, ColumnLines: 16, LineBytes: 64,
	}
	cfg.PoolSize = 8
	cfg.MaxWrites = 4
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg, newFifo)
	if err != nil {
		t.Fatal(err)
	}
	c.Tick(0)
	return c
}

func drain(t *testing.T, c *Controller, from uint64) uint64 {
	t.Helper()
	cyc := from
	for i := 0; i < 100000; i++ {
		if c.Drained() {
			return cyc
		}
		cyc++
		c.Tick(cyc)
	}
	t.Fatal("controller did not drain")
	return 0
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.PoolSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("pool size 0 accepted")
	}
	bad = DefaultConfig()
	bad.MaxWrites = bad.PoolSize + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("max writes > pool accepted")
	}
	bad = DefaultConfig()
	bad.Mapping = "bogus"
	if err := bad.Validate(); err == nil {
		t.Fatal("bogus mapping accepted")
	}
	if _, err := New(bad, newFifo); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestPoolAdmission(t *testing.T) {
	c := mustNew(t, testConfig())
	// Fill the write share.
	for i := 0; i < 4; i++ {
		if _, ok := c.Submit(KindWrite, uint64(i)<<12, nil); !ok {
			t.Fatalf("write %d rejected early", i)
		}
	}
	if c.CanAccept(KindWrite) {
		t.Fatal("write accepted beyond MaxWrites")
	}
	if _, ok := c.Submit(KindWrite, 99<<12, nil); ok {
		t.Fatal("write admitted beyond MaxWrites")
	}
	if !c.CanAccept(KindRead) {
		t.Fatal("read rejected with pool space left")
	}
	// Fill the rest of the pool with reads.
	for i := 0; i < 4; i++ {
		if _, ok := c.Submit(KindRead, uint64(0x100+i)<<12, nil); !ok {
			t.Fatalf("read %d rejected early", i)
		}
	}
	if c.CanAccept(KindRead) {
		t.Fatal("read accepted beyond pool size")
	}
	if c.Stats.RejectedRequests != 1 {
		t.Fatalf("rejected = %d, want 1", c.Stats.RejectedRequests)
	}
	drain(t, c, 0)
	if c.OutstandingReads() != 0 || c.OutstandingWrites() != 0 {
		t.Fatal("pool not empty after drain")
	}
}

func TestCompletionCallbacksAndLatency(t *testing.T) {
	c := mustNew(t, testConfig())
	var doneAt uint64
	a, ok := c.Submit(KindRead, 0, func(a *Access, now uint64) { doneAt = now })
	if !ok {
		t.Fatal("submit failed")
	}
	end := drain(t, c, 0)
	if doneAt == 0 || doneAt > end {
		t.Fatalf("completion at %d, drained at %d", doneAt, end)
	}
	if a.DataEnd != doneAt {
		t.Fatalf("DataEnd %d != completion %d", a.DataEnd, doneAt)
	}
	// Row empty on an idle device: tRCD + tCL + data.
	tm := c.Config().Timing
	want := uint64(tm.TRCD+tm.TCL+tm.DataCycles()) + 1 // +1: first command issues at cycle 1
	if got := c.Stats.ReadLatency.Mean(); got != float64(want) {
		t.Fatalf("read latency %v, want %d", got, want)
	}
}

func TestWriteSaturationStat(t *testing.T) {
	c := mustNew(t, testConfig())
	for i := 0; i < 4; i++ {
		if _, ok := c.Submit(KindWrite, uint64(i*2)<<12, nil); !ok {
			t.Fatal("write rejected")
		}
	}
	drain(t, c, 0)
	if c.Stats.WriteSatCycles == 0 {
		t.Fatal("write saturation never recorded")
	}
	if rate := c.Stats.WriteSaturationRate(); rate <= 0 || rate > 1 {
		t.Fatalf("saturation rate %v out of range", rate)
	}
}

func TestOccupancySampling(t *testing.T) {
	c := mustNew(t, testConfig())
	c.Submit(KindRead, 0, nil)
	c.Submit(KindRead, 1<<12, nil)
	c.Tick(1)
	if c.Stats.OutstandingReads.Count(2) == 0 {
		t.Fatal("occupancy 2 not sampled")
	}
	drain(t, c, 1)
	if c.Stats.OutstandingReads.Total() != c.Stats.Cycles {
		t.Fatal("occupancy histogram total != cycles")
	}
}

func TestChannelRouting(t *testing.T) {
	cfg := testConfig()
	cfg.Geometry.Channels = 2
	c := mustNew(t, cfg)
	g := cfg.Geometry
	m := c.Mapper()
	a0, _ := c.Submit(KindRead, m.Encode(addrmap.Loc{Channel: 0, Row: 1}), nil)
	a1, _ := c.Submit(KindRead, m.Encode(addrmap.Loc{Channel: 1, Row: 1}), nil)
	if a0.Loc.Channel != 0 || a1.Loc.Channel != 1 {
		t.Fatalf("channel decode wrong: %v %v", a0.Loc, a1.Loc)
	}
	drain(t, c, 0)
	if c.Channel(0).Stats.Reads != 1 || c.Channel(1).Stats.Reads != 1 {
		t.Fatalf("per-channel reads: %d/%d, want 1/1",
			c.Channel(0).Stats.Reads, c.Channel(1).Stats.Reads)
	}
	_ = g
}

func TestBandwidthAndUtilization(t *testing.T) {
	c := mustNew(t, testConfig())
	for i := 0; i < 8; i++ {
		c.Submit(KindRead, uint64(i*64), nil)
	}
	drain(t, c, 0)
	if bw := c.EffectiveBandwidth(); bw <= 0 {
		t.Fatalf("bandwidth %v", bw)
	}
	data, addr := c.BusUtilization()
	if data <= 0 || data > 1 || addr <= 0 || addr > 1 {
		t.Fatalf("utilization data=%v addr=%v", data, addr)
	}
	hit, empty, conflict := c.RowOutcomeRates()
	if s := hit + empty + conflict; s < 0.999 || s > 1.001 {
		t.Fatalf("outcome rates sum to %v", s)
	}
}

// TestAccessLineAddr property: LineAddr aligns down to the line size.
func TestAccessLineAddr(t *testing.T) {
	f := func(addr uint64) bool {
		a := Access{Addr: addr}
		l := a.LineAddr(64)
		return l%64 == 0 && l <= addr && addr-l < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStepsThroughTransactions drives one conflicting access through
// precharge, activate and column explicitly.
func TestEngineStepsThroughTransactions(t *testing.T) {
	c := mustNew(t, testConfig())
	// Open row 0 first.
	c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Row: 0}), nil)
	end := drain(t, c, 0)
	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Row: 1}), nil)
	drain(t, c, end)
	if a.Outcome != dram.RowConflict {
		t.Fatalf("outcome %v, want conflict", a.Outcome)
	}
	ch := c.Channel(0)
	if ch.Stats.Precharges == 0 || ch.Stats.Activates < 2 {
		t.Fatalf("transaction counts: %+v", ch.Stats)
	}
}

func TestKindString(t *testing.T) {
	if KindRead.String() != "read" || KindWrite.String() != "write" {
		t.Fatal("Kind.String broken")
	}
}
