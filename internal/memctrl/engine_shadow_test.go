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
		for _, cand := range m.engine.Candidates() {
			if cand.Unblocked {
				m.engine.Issue(cand, now)
				break
			}
		}
		m.engine.NextEventCycle(now)
	}
	if m.engine.Ongoing(0, 0) != nil {
		t.Fatal("access never completed its transaction sequence")
	}
}
