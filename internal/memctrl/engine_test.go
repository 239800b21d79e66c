package memctrl

import (
	"fmt"
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
)

// engineHarness builds a single-channel controller with a do-nothing
// mechanism so tests can drive an Engine by hand.
type inertMech struct {
	host     *Host
	engine   *Engine
	forwards bool
}

func (m *inertMech) Name() string                  { return "inert" }
func (m *inertMech) ForwardsWrites() bool          { return m.forwards }
func (m *inertMech) Pending() (int, int)           { return m.host.Pending() }
func (m *inertMech) Enqueue(a *Access, now uint64) {}
func (m *inertMech) Tick(now uint64)               {}

func newEngineHarness(t *testing.T) (*Controller, *inertMech) {
	t.Helper()
	cfg := engineHarnessConfig()
	cfg.Timing.TREFI = 0
	return newEngineHarnessFor(t, cfg)
}

// engineHarnessConfig is the harness machine: one channel of 2 ranks × 2
// banks.
func engineHarnessConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry = addrmap.Geometry{
		Channels: 1, Ranks: 2, Banks: 2, Rows: 16, ColumnLines: 16, LineBytes: 64,
	}
	cfg.PoolSize = 16
	cfg.MaxWrites = 8
	return cfg
}

func newEngineHarnessFor(t *testing.T, cfg Config) (*Controller, *inertMech) {
	t.Helper()
	var mech *inertMech
	c, err := New(cfg, func(h *Host) Mechanism {
		mech = &inertMech{host: h, engine: NewEngine(h, nil)}
		return mech
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick(0)
	return c, mech
}

func TestEngineOngoingBookkeeping(t *testing.T) {
	c, m := newEngineHarness(t)
	a, ok := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 1, Bank: 1, Row: 3}), nil)
	if !ok {
		t.Fatal("submit failed")
	}
	f := m.engine.BankMap().Index(1, 1)
	if f != 3 || a.FlatBank(m.engine.BankMap()) != f {
		t.Fatalf("rank 1 bank 1 of a 2x2 channel is bank %d (access: %d), want 3", f, a.FlatBank(m.engine.BankMap()))
	}
	if m.engine.Ongoing(f) != nil {
		t.Fatal("fresh engine has an ongoing access")
	}
	m.engine.SetOngoing(a)
	if m.engine.Ongoing(f) != a || m.engine.OccupiedMask() != 1<<3 {
		t.Fatalf("ongoing not installed (occupied %#b)", m.engine.OccupiedMask())
	}
	m.engine.ClearOngoing(f)
	if m.engine.Ongoing(f) != nil || m.engine.OccupiedMask() != 0 {
		t.Fatal("ongoing not cleared")
	}
}

func TestEngineCandidatesAndIssue(t *testing.T) {
	c, m := newEngineHarness(t)
	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	m.engine.SetOngoing(a)

	// Closed bank: the only unblocked transaction is the read's activate,
	// a row transaction.
	cl, any := m.engine.Unblocked(0)
	if !any || *cl != (BankClasses{RowRead: 1}) {
		t.Fatalf("class masks %+v (any=%v), want only rank 0 bank 0 as a row read", *cl, any)
	}
	if cmd := m.engine.Issue(0, 0); cmd != dram.CmdActivate {
		t.Fatalf("issued %v, want activate", cmd)
	}
	if !a.Started() {
		t.Fatal("access not marked started after first transaction")
	}
	if a.Outcome != dram.RowEmpty {
		t.Fatalf("outcome %v, want empty", a.Outcome)
	}

	// Issue derives the command from the device state, so issuing before
	// tRCD attempts the blocked read, and the channel refuses it.
	c.Tick(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Issue of the read before tRCD did not panic")
			}
		}()
		m.engine.Issue(0, 1)
	}()

	// Step until the column is unblocked (tRCD), then issue it; the
	// ongoing slot must clear and a completion must be scheduled.
	cyc := uint64(1)
	for {
		cyc++
		c.Tick(cyc)
		if cl, any := m.engine.Unblocked(cyc); any && cl.ColRead == 1 {
			if cmd := m.engine.Issue(0, cyc); cmd != dram.CmdRead {
				t.Fatalf("issued %v, want read", cmd)
			}
			break
		}
		if cyc > 100 {
			t.Fatal("column never unblocked")
		}
	}
	if m.engine.Ongoing(0) != nil {
		t.Fatal("ongoing slot not cleared after column issue")
	}
	if a.DataEnd <= cyc {
		t.Fatalf("DataEnd %d not in the future of %d", a.DataEnd, cyc)
	}
	// Nothing is left to issue.
	if _, any := m.engine.Unblocked(cyc); any {
		t.Fatal("a bank is unblocked after the only access completed")
	}
}

// TestEngineFoldOldest pins the oldest-first fold every mechanism shares:
// the strictly oldest arrival wins, arrival ties go to the lowest rank,
// then the lowest bank, and a running pick from an earlier fold competes.
func TestEngineFoldOldest(t *testing.T) {
	c, m := newEngineHarness(t)
	e := m.engine
	enc := func(rank, bank int) uint64 {
		return c.Mapper().Encode(addrmap.Loc{Rank: uint8(rank), Bank: uint8(bank), Row: 1})
	}
	a11, _ := c.Submit(KindRead, enc(1, 1), nil)
	a01, _ := c.Submit(KindRead, enc(0, 1), nil)
	c.Tick(1)
	a00, _ := c.Submit(KindRead, enc(0, 0), nil)
	a10, _ := c.Submit(KindWrite, enc(1, 0), nil)
	for _, a := range []*Access{a11, a01, a00, a10} {
		e.SetOngoing(a)
	}

	// Flat banks of the 2x2 channel: (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3.
	for _, tc := range []struct {
		mask       uint64
		best, want int
	}{
		{0b1111, -1, 1}, // a01 and a11 tie at cycle 0: lowest rank
		{0b1001, -1, 3}, // a11 is strictly older than a00
		{0b0101, -1, 0}, // a00 and a10 tie at cycle 1: lowest rank
		{0b0100, -1, 2},
		{0b0000, -1, -1},
		{0b0000, 2, 2},
		{0b1000, 0, 3}, // the running pick loses to an older arrival
		{0b0100, 0, 0}, // and keeps an arrival tie
	} {
		if got := e.FoldOldest(tc.mask, tc.best); got != tc.want {
			t.Errorf("FoldOldest(%04b, %d) = %d, want %d", tc.mask, tc.best, got, tc.want)
		}
	}
	if f := e.FoldOldest(e.OccupiedMask(), -1); f != 1 {
		t.Fatalf("oldest ongoing bank %d, want 1", f)
	}
	e.ClearOngoing(1)
	if f := e.FoldOldest(e.OccupiedMask(), -1); f != 3 {
		t.Fatalf("after clearing bank 1: oldest ongoing bank %d, want 3", f)
	}
}

// TestEngineRefreshDueWithholdsActivate pins the one legality rule with no
// issue bound: from a rank's refresh deadline until its refresh has run,
// Unblocked withholds the rank's activates while it still reports an
// issuable bank of another rank. Across that window the channel's refresh
// wake bound is the cycle after the current one, never a cycle already
// reached; an engine that tested the wake bound against the current cycle
// would hand the activate to dram.Channel.Issue, which panics. The 1 × 64
// channel puts the waiting activate on the word's top bit, where a rank
// mask that misses the last bank of a full word would let it through.
func TestEngineRefreshDueWithholdsActivate(t *testing.T) {
	for _, g := range []struct{ ranks, banks int }{{2, 2}, {1, 64}} {
		t.Run(fmt.Sprintf("%dx%d", g.ranks, g.banks), func(t *testing.T) {
			cfg := engineHarnessConfig()
			cfg.Geometry.Ranks, cfg.Geometry.Banks = g.ranks, g.banks
			c, m := newEngineHarnessFor(t, cfg)
			e := m.engine
			ch := c.Channel(0)
			enc := func(rank, bank, row int) *Access {
				a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: uint8(rank), Bank: uint8(bank), Row: uint32(row)}), nil)
				return a
			}
			// Rank 0's first deadline is tREFI; rank 1's is staggered later.
			due := uint64(ch.T.TREFI)
			for cyc := uint64(1); cyc < due; cyc++ {
				c.Tick(cyc)
			}
			// Rank 0 bank 0 has an open row, so the refresh engine must
			// first precharge it, and the due window spans several cycles.
			e.SetOngoing(enc(0, 0, 2))
			if cmd := e.Issue(0, due-1); cmd != dram.CmdActivate {
				t.Fatalf("issued %v, want activate", cmd)
			}
			e.ClearOngoing(0)
			waiting := e.BankMap().Index(0, g.banks-1)
			e.SetOngoing(enc(0, g.banks-1, 3))
			other := -1 // a bank of rank 1, which stays issuable
			if g.ranks > 1 {
				other = e.BankMap().Index(1, 1)
				e.SetOngoing(enc(1, 1, 4))
			}

			withheld, others := 0, 0
			cyc := due
			for ; ch.Stats.Refreshes == 0; cyc++ {
				if cyc > due+200 {
					t.Fatal("rank 0's refresh never ran")
				}
				c.Tick(cyc)
				if !ch.RefreshDue(0) || !ch.CommandSlotFree() {
					continue
				}
				withheld++
				cl, any := e.Unblocked(cyc)
				if any && cl.All()&(1<<uint(waiting)) != 0 {
					t.Fatalf("cycle %d: rank 0's refresh is due, but Unblocked gives %+v: the activate of bank %d is not withheld", cyc, *cl, waiting)
				}
				if any && other >= 0 && cl.All()&(1<<uint(other)) != 0 {
					others++
					e.Issue(other, cyc)
				}
			}
			if withheld == 0 || g.ranks > 1 && others == 0 {
				t.Fatalf("%d cycles with rank 0's refresh due and the command slot free, %d issues to rank 1 in them", withheld, others)
			}

			// Once the refresh has run (tRFC), the activate reappears.
			for end := cyc + uint64(ch.T.TRFC) + 10; cyc < end; cyc++ {
				c.Tick(cyc)
				if cl, any := e.Unblocked(cyc); any && cl.RowRead&(1<<uint(waiting)) != 0 {
					if cmd := e.Issue(waiting, cyc); cmd != dram.CmdActivate {
						t.Fatalf("issued %v, want bank %d's activate", cmd, waiting)
					}
					return
				}
			}
			t.Fatalf("bank %d's activate never reappeared after the refresh", waiting)
		})
	}
}

// TestEngineNextEventCycle pins the idle-skip hint through one access's
// transaction sequence: nothing pending, an issuable activate, the column
// waiting on tRCD, a second bank with an earlier bound, and the slots
// clearing again.
func TestEngineNextEventCycle(t *testing.T) {
	c, m := newEngineHarness(t)
	e := m.engine
	if next := e.NextEventCycle(0); next != dram.NoEvent {
		t.Fatalf("idle engine: next event %d, want NoEvent", next)
	}

	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	e.SetOngoing(a)
	if next := e.NextEventCycle(0); next != 1 {
		t.Fatalf("issuable activate: next event %d, want 1 (now+1)", next)
	}

	// The activate issues at cycle 0; the read waits on tRCD.
	if cmd := e.Issue(0, 0); cmd != dram.CmdActivate {
		t.Fatalf("issued %v, want activate", cmd)
	}
	ch := c.Channel(0)
	tRCD := uint64(ch.T.TRCD)
	read := ch.EarliestIssue(dram.CmdRead, a.Target())
	if read != tRCD {
		t.Fatalf("read EarliestIssue %d, want tRCD %d", read, tRCD)
	}
	if next := e.NextEventCycle(0); next != read {
		t.Fatalf("after activate: next event %d, want the read's EarliestIssue %d", next, read)
	}

	// A second bank in the other rank can activate next cycle: the earlier
	// of the two bounds wins.
	b, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 1, Bank: 1, Row: 5}), nil)
	e.SetOngoing(b)
	if next := e.NextEventCycle(0); next != 1 {
		t.Fatalf("two banks: next event %d, want 1 (the activate's bound)", next)
	}
	e.ClearOngoing(3)
	if next := e.NextEventCycle(0); next != read {
		t.Fatalf("second bank cleared: next event %d, want %d", next, read)
	}

	// Step to the read's bound and issue it; the slot clears.
	for cyc := uint64(1); cyc <= read; cyc++ {
		c.Tick(cyc)
	}
	if cl, any := e.Unblocked(read); !any || cl.ColRead != 1 {
		t.Fatalf("class masks %+v at cycle %d, want an unblocked read on bank 0", *cl, read)
	}
	if cmd := e.Issue(0, read); cmd != dram.CmdRead {
		t.Fatalf("issued %v, want read", cmd)
	}
	if next := e.NextEventCycle(read); next != dram.NoEvent {
		t.Fatalf("after the column: next event %d, want NoEvent", next)
	}
}

func TestEngineOnColumnHook(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timing.TREFI = 0
	cfg.Geometry = addrmap.Geometry{
		Channels: 1, Ranks: 1, Banks: 1, Rows: 8, ColumnLines: 8, LineBytes: 64,
	}
	cfg.PoolSize = 4
	cfg.MaxWrites = 2
	var hook []*Access
	var eng *Engine
	c, err := New(cfg, func(h *Host) Mechanism {
		eng = NewEngine(h, func(a *Access, now uint64) { hook = append(hook, a) })
		return &inertMech{host: h, engine: eng}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick(0)
	a, _ := c.Submit(KindWrite, 0, nil)
	eng.SetOngoing(a)
	for cyc := uint64(1); cyc < 200 && len(hook) == 0; cyc++ {
		c.Tick(cyc)
		if _, any := eng.Unblocked(cyc); any {
			eng.Issue(0, cyc)
		}
	}
	if len(hook) != 1 || hook[0] != a {
		t.Fatalf("onColumn hook fired %d times", len(hook))
	}
}

// TestHostPendingCounts pins Host.Pending: a read or write counts from
// Submit until its column transaction issues, a forwarded read never
// counts, and a preempted write stays counted.
func TestHostPendingCounts(t *testing.T) {
	c, m := newEngineHarness(t)
	m.forwards = true
	e := m.engine
	want := func(reads, writes int) {
		t.Helper()
		if r, w := m.Pending(); r != reads || w != writes {
			t.Fatalf("Pending() = (%d, %d), want (%d, %d)", r, w, reads, writes)
		}
	}
	want(0, 0)
	wAddr := c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2})
	w, _ := c.Submit(KindWrite, wAddr, nil)
	want(0, 1)
	if fwd, _ := c.Submit(KindRead, wAddr, nil); !fwd.Forwarded {
		t.Fatal("read of a pending write's line was not forwarded")
	}
	want(0, 1)
	rd, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 1, Bank: 1, Row: 5}), nil)
	want(1, 1)

	// The write activates its row, then a read preempts it.
	e.SetOngoing(w)
	if cmd := e.Issue(0, 0); cmd != dram.CmdActivate {
		t.Fatalf("issued %v, want activate", cmd)
	}
	e.ClearOngoing(0)
	want(1, 1)

	// Step the bank's ongoing access through its transactions; it counts
	// as pending until the column issues.
	cyc := uint64(0)
	runToColumn := func(f, reads, writes int) {
		t.Helper()
		for e.Ongoing(f) != nil {
			want(reads, writes)
			if cyc++; cyc > 200 {
				t.Fatalf("bank %d never issued its column", f)
			}
			c.Tick(cyc)
			if cl, any := e.Unblocked(cyc); any && cl.All()&(1<<uint(f)) != 0 {
				e.Issue(f, cyc)
			}
		}
	}
	e.SetOngoing(rd)
	runToColumn(3, 1, 1)
	want(0, 1)
	e.SetOngoing(w)
	runToColumn(0, 0, 1)
	want(0, 0)
}
