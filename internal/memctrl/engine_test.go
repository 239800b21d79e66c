package memctrl

import (
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
)

// engineHarness builds a single-channel controller with a do-nothing
// mechanism so tests can drive an Engine by hand.
type inertMech struct{ engine *Engine }

func (m *inertMech) Name() string                  { return "inert" }
func (m *inertMech) ForwardsWrites() bool          { return false }
func (m *inertMech) Pending() (int, int)           { return 0, 0 }
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
		mech = &inertMech{}
		mech.engine = NewEngine(h, nil)
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

	// Closed bank: candidate must be an unblocked activate.
	cands := m.engine.Candidates()
	if len(cands) != 1 {
		t.Fatalf("%d candidates, want 1", len(cands))
	}
	if cands[0].Cmd != dram.CmdActivate || !cands[0].Unblocked || cands[0].IsColumn() {
		t.Fatalf("candidate %+v, want unblocked activate", cands[0])
	}
	m.engine.Issue(cands[0], 0)
	if !a.Started() {
		t.Fatal("access not marked started after first transaction")
	}
	if a.Outcome != dram.RowEmpty {
		t.Fatalf("outcome %v, want empty", a.Outcome)
	}

	// Step until the column is unblocked (tRCD), then issue it; the
	// ongoing slot must clear and a completion must be scheduled.
	cyc := uint64(0)
	for {
		cyc++
		c.Tick(cyc)
		cands = m.engine.Candidates()
		if len(cands) == 1 && cands[0].Cmd == dram.CmdRead && cands[0].Unblocked {
			m.engine.Issue(cands[0], cyc)
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
	// Candidates must be empty now.
	if got := len(m.engine.Candidates()); got != 0 {
		t.Fatalf("%d candidates after completion, want 0", got)
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
	act := e.Candidates()[0]
	if act.Cmd != dram.CmdActivate || !act.Unblocked {
		t.Fatalf("candidate %+v, want unblocked activate", act)
	}
	e.Issue(act, 0)
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
	col := e.Candidates()[0]
	if col.Cmd != dram.CmdRead || !col.Unblocked {
		t.Fatalf("candidate %+v at cycle %d, want unblocked read", col, read)
	}
	e.Issue(col, read)
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
		m := &inertMech{}
		m.engine = NewEngine(h, func(a *Access, now uint64) { hook = append(hook, a) })
		eng = m.engine
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick(0)
	a, _ := c.Submit(KindWrite, 0, nil)
	eng.SetOngoing(0, 0, a)
	for cyc := uint64(1); cyc < 200 && len(hook) == 0; cyc++ {
		c.Tick(cyc)
		for _, cand := range eng.Candidates() {
			if cand.Unblocked {
				eng.Issue(cand, cyc)
			}
		}
	}
	if len(hook) != 1 || hook[0] != a {
		t.Fatalf("onColumn hook fired %d times", len(hook))
	}
}
