//go:build invariants

package memctrl

import (
	"testing"

	"burstmem/internal/addrmap"
)

// TestEngineShadowTrigger proves the -tags invariants hint-vs-linear-scan
// cross-check actually fires: it primes the engine's hint cache, then
// simulates a cache-invalidation bug by pushing the cached minimum issue
// bound far into the future without any channel state change, and asserts
// NextEventCycle panics cycle-stamped.
func TestEngineShadowTrigger(t *testing.T) {
	c, m := newEngineHarness(t)
	a, ok := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	if !ok {
		t.Fatal("submit failed")
	}
	m.engine.SetOngoing(0, 0, a)

	// Prime: the activate is issuable immediately, so the hint cache
	// agrees with the linear scan here.
	if next := m.engine.NextEventCycle(0); next != 1 {
		t.Fatalf("primed next event %d, want 1 (activate issuable next cycle)", next)
	}

	// Bug: the cached bound claims no bank can issue for thousands of
	// cycles. No channel counter moved, so sync() keeps the corrupt bound —
	// exactly the failure mode the shadow check exists to catch.
	m.engine.minFull = 50000

	mustPanicContaining(t, "cycle 0: hint cache predicts next event at cycle 50000", func() {
		m.engine.NextEventCycle(0)
	})
}

// TestEngineShadowCleanRun drives the engine through a normal
// submit/issue sequence under the shadow check to show agreement on the
// happy path (no panic).
func TestEngineShadowCleanRun(t *testing.T) {
	c, m := newEngineHarness(t)
	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	m.engine.SetOngoing(0, 0, a)
	for now := uint64(1); now < 64 && m.engine.Ongoing(0, 0) != nil; now++ {
		c.Tick(now)
		m.engine.NextEventCycle(now)
		if _, any := m.engine.Unblocked(now); any {
			m.engine.Issue(0, 0, now)
		}
		m.engine.NextEventCycle(now)
	}
	if m.engine.Ongoing(0, 0) != nil {
		t.Fatal("access never completed its transaction sequence")
	}
}

// TestEngineShadowUnblockedTrigger proves the -tags invariants
// Unblocked-vs-CanIssue cross-check fires: once the activate has issued and
// the read waits on tRCD, it simulates a stale hint by setting the bank's
// cached issue bound (and the cached minimum) to 0 without any channel
// state change, and asserts Unblocked panics, cycle-stamped.
func TestEngineShadowUnblockedTrigger(t *testing.T) {
	c, m := newEngineHarness(t)
	a, _ := c.Submit(KindRead, c.Mapper().Encode(addrmap.Loc{Rank: 0, Bank: 0, Row: 2}), nil)
	m.engine.SetOngoing(0, 0, a)
	c.Tick(1)
	if _, any := m.engine.Unblocked(1); !any {
		t.Fatal("the activate is not unblocked at cycle 1")
	}
	m.engine.Issue(0, 0, 1)
	c.Tick(2)
	if _, any := m.engine.Unblocked(2); any {
		t.Fatal("the read is unblocked before tRCD")
	}

	// Bug: the hint forgets tRCD. No channel counter moved, so sync()
	// keeps it, and Unblocked would hand the blocked read to a mechanism.
	m.engine.hints[0].full = 0
	m.engine.minFull = 0

	mustPanicContaining(t, "cycle 2: Unblocked gives rank 0 class masks col-read 0x1", func() {
		m.engine.Unblocked(2)
	})
}
