package memctrl

import (
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
	cfg := DefaultConfig()
	cfg.Timing.TREFI = 0
	cfg.Geometry = addrmap.Geometry{
		Channels: 1, Ranks: 2, Banks: 2, Rows: 16, ColumnLines: 16, LineBytes: 64,
	}
	cfg.PoolSize = 16
	cfg.MaxWrites = 8
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
	if m.engine.Ongoing(1, 1) != nil {
		t.Fatal("fresh engine has an ongoing access")
	}
	m.engine.SetOngoing(1, 1, a)
	if m.engine.Ongoing(1, 1) != a {
		t.Fatal("ongoing not installed")
	}
	m.engine.ClearOngoing(1, 1)
	if m.engine.Ongoing(1, 1) != nil {
		t.Fatal("ongoing not cleared")
	}
}

func TestEngineCandidatesAndIssue(t *testing.T) {
	c, m := newEngineHarness(t)
	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	m.engine.SetOngoing(0, 0, a)

	// Closed bank: the only unblocked transaction is the read's activate,
	// a row transaction.
	cl, any := m.engine.Unblocked(0)
	if !any || cl.RowRead[0] != 1 || cl.ColRead[0]|cl.ColWrite[0]|cl.RowWrite[0]|cl.Rank(1) != 0 {
		t.Fatalf("class masks %+v (any=%v), want only rank 0 bank 0 as a row read", *cl, any)
	}
	if cmd := m.engine.Issue(0, 0, 0); cmd != dram.CmdActivate {
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
		m.engine.Issue(0, 0, 1)
	}()

	// Step until the column is unblocked (tRCD), then issue it; the
	// ongoing slot must clear and a completion must be scheduled.
	cyc := uint64(1)
	for {
		cyc++
		c.Tick(cyc)
		if cl, any := m.engine.Unblocked(cyc); any && cl.ColRead[0] == 1 {
			if cmd := m.engine.Issue(0, 0, cyc); cmd != dram.CmdRead {
				t.Fatalf("issued %v, want read", cmd)
			}
			break
		}
		if cyc > 100 {
			t.Fatal("column never unblocked")
		}
	}
	if m.engine.Ongoing(0, 0) != nil {
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
// then the lowest bank, and OldestOngoing agrees until a slot changes.
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
		e.SetOngoing(int(a.Loc.Rank), int(a.Loc.Bank), a)
	}

	fold := func(masks ...uint64) (int, int) {
		r, b := -1, -1
		for rank, mask := range masks {
			r, b = e.FoldOldest(rank, mask, r, b)
		}
		return r, b
	}
	for _, tc := range []struct {
		masks      []uint64
		rank, bank int
	}{
		{[]uint64{0b11, 0b11}, 0, 1}, // a01 and a11 tie at cycle 0: lowest rank
		{[]uint64{0b01, 0b11}, 1, 1}, // a11 is strictly older than a00
		{[]uint64{0b01, 0b01}, 0, 0}, // a00 and a10 tie at cycle 1: lowest rank
		{[]uint64{0b00, 0b01}, 1, 0},
		{[]uint64{0b00, 0b00}, -1, -1},
	} {
		if r, b := fold(tc.masks...); r != tc.rank || b != tc.bank {
			t.Errorf("fold %b: bank (%d, %d), want (%d, %d)", tc.masks, r, b, tc.rank, tc.bank)
		}
	}
	if r, b, ok := e.OldestOngoing(); !ok || r != 0 || b != 1 {
		t.Fatalf("OldestOngoing = (%d, %d, %v), want (0, 1, true)", r, b, ok)
	}
	e.ClearOngoing(0, 1)
	if r, b, ok := e.OldestOngoing(); !ok || r != 1 || b != 1 {
		t.Fatalf("after clearing (0, 1): OldestOngoing = (%d, %d, %v), want (1, 1, true)", r, b, ok)
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
	e.SetOngoing(0, 0, a)
	if next := e.NextEventCycle(0); next != 1 {
		t.Fatalf("issuable activate: next event %d, want 1 (now+1)", next)
	}

	// The activate issues at cycle 0; the read waits on tRCD.
	if cmd := e.Issue(0, 0, 0); cmd != dram.CmdActivate {
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
	e.SetOngoing(1, 1, b)
	if next := e.NextEventCycle(0); next != 1 {
		t.Fatalf("two banks: next event %d, want 1 (the activate's bound)", next)
	}
	e.ClearOngoing(1, 1)
	if next := e.NextEventCycle(0); next != read {
		t.Fatalf("second bank cleared: next event %d, want %d", next, read)
	}

	// Step to the read's bound and issue it; the slot clears.
	for cyc := uint64(1); cyc <= read; cyc++ {
		c.Tick(cyc)
	}
	if cl, any := e.Unblocked(read); !any || cl.ColRead[0] != 1 {
		t.Fatalf("class masks %+v at cycle %d, want an unblocked read on bank 0", *cl, read)
	}
	if cmd := e.Issue(0, 0, read); cmd != dram.CmdRead {
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
	eng.SetOngoing(0, 0, a)
	for cyc := uint64(1); cyc < 200 && len(hook) == 0; cyc++ {
		c.Tick(cyc)
		if _, any := eng.Unblocked(cyc); any {
			eng.Issue(0, 0, cyc)
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
	e.SetOngoing(0, 0, w)
	if cmd := e.Issue(0, 0, 0); cmd != dram.CmdActivate {
		t.Fatalf("issued %v, want activate", cmd)
	}
	e.ClearOngoing(0, 0)
	want(1, 1)

	// Step the bank's ongoing access through its transactions; it counts
	// as pending until the column issues.
	cyc := uint64(0)
	runToColumn := func(rank, bank, reads, writes int) {
		t.Helper()
		for e.Ongoing(rank, bank) != nil {
			want(reads, writes)
			if cyc++; cyc > 200 {
				t.Fatalf("bank (%d, %d) never issued its column", rank, bank)
			}
			c.Tick(cyc)
			if cl, any := e.Unblocked(cyc); any && cl.Rank(rank)&(1<<uint(bank)) != 0 {
				e.Issue(rank, bank, cyc)
			}
		}
	}
	e.SetOngoing(1, 1, rd)
	runToColumn(1, 1, 1, 1)
	want(0, 1)
	e.SetOngoing(0, 0, w)
	runToColumn(0, 0, 0, 1)
	want(0, 0)
}
