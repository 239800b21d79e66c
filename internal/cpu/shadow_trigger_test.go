//go:build invariants

package cpu

import (
	"fmt"
	"strings"
	"testing"
)

// TestReplayGateShadowTrigger proves the -tags invariants replay-gate check
// fires: once the gate has closed on four refused loads, the cache starts
// accepting them without moving its version (the bug a missing Version
// bump would be), and the next tick must panic, cycle-stamped.
func TestReplayGateShadowTrigger(t *testing.T) {
	c, mem := refusedLoads(t)
	mem.blocked = false
	mustPanicContaining(t, "cycle 3: closed replay gate predicted 4 refusals and no issue, but the walk issued 4 loads", c.Tick)
}

// TestReplayGateWokenShadowTrigger: with the chain head's dependent woken,
// the cache starts accepting the other loads without moving its version.
// The walk then issues more than the woken load, and the tick must panic.
func TestReplayGateWokenShadowTrigger(t *testing.T) {
	c, mem := chainThenRefused(t)
	mem.release()
	mem.blocked = false
	mustPanicContaining(t, "cycle 3: closed replay gate predicted 4 refusals and no issue, but the walk issued 4 loads and was refused 0 times", c.Tick)
}

// TestStoreGateShadowTrigger: once the store gate has closed on a refused
// store, the cache starts accepting it without moving its version, and the
// next tick must panic, cycle-stamped.
func TestStoreGateShadowTrigger(t *testing.T) {
	c, mem := refusedStore(t)
	mem.blocked = false
	mustPanicContaining(t, "cycle 4: closed store gate predicted a refusal, but the store's probe was a miss", c.Tick)
}

func mustPanicContaining(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}
