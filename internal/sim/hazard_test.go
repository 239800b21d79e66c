package sim

import (
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/memctrl"
	"burstmem/internal/xrand"
)

// TestOrderingInvariants drives every mechanism with colliding read/write
// traffic over a tiny footprint and asserts the memory-ordering rules the
// paper's Section 3.4 claims (extended with the forced-write WAR guard):
//
//   - WAR: a read completes before any same-line write that arrived after
//     it drains (forwarded reads exempt — they never reach the device);
//   - WAW: same-line writes drain in arrival order;
//   - RAW: a read arriving while a same-line write is pending is forwarded
//     (for forwarding mechanisms) or completes after that write drains
//     (for in-order ones).
func TestOrderingInvariants(t *testing.T) {
	for _, mech := range conservationMechanisms() {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			factory, err := MechanismByName(mech)
			if err != nil {
				t.Fatal(err)
			}
			cfg := memctrl.DefaultConfig()
			cfg.Geometry = addrmap.Geometry{
				Channels: 1, Ranks: 1, Banks: 2, Rows: 4, ColumnLines: 8, LineBytes: 64,
			}
			cfg.PoolSize = 24
			cfg.MaxWrites = 6
			ctrl, err := memctrl.New(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			// The controller recycles Access objects after completion, so
			// keep stable snapshot records (copied at submit and again at
			// completion) rather than live pool-owned pointers.
			var completed int
			rng := xrand.New(7)
			var submitted []*memctrl.Access
			ctrl.Tick(0)
			for cyc := uint64(1); cyc < 30000; cyc++ {
				ctrl.Tick(cyc)
				if rng.Intn(3) != 0 {
					continue
				}
				kind := memctrl.KindRead
				if rng.Intn(3) == 0 {
					kind = memctrl.KindWrite
				}
				if !ctrl.CanAccept(kind) {
					continue
				}
				// Tiny footprint: 16 lines over 2 banks, heavy collisions.
				addr := uint64(rng.Intn(16)) * 64 * 4
				rec := &memctrl.Access{}
				a, ok := ctrl.Submit(kind, addr, func(a *memctrl.Access, now uint64) {
					*rec = *a
					completed++
				})
				if !ok {
					continue
				}
				*rec = *a
				submitted = append(submitted, rec)
			}
			for cyc := uint64(30000); !ctrl.Drained(); cyc++ {
				if cyc > 300000 {
					t.Fatalf("controller wedged: %d reads %d writes outstanding",
						ctrl.OutstandingReads(), ctrl.OutstandingWrites())
				}
				ctrl.Tick(cyc)
			}
			if completed != len(submitted) {
				t.Fatalf("completed %d of %d", completed, len(submitted))
			}
			// Group by line; check orderings via device data times.
			byLine := map[uint64][]*memctrl.Access{}
			for _, a := range submitted {
				byLine[a.LineAddr(64)] = append(byLine[a.LineAddr(64)], a)
			}
			for line, accs := range byLine {
				for i, a := range accs {
					for _, b := range accs[i+1:] {
						// a arrived before b (submission order).
						switch {
						case a.Kind == memctrl.KindWrite && b.Kind == memctrl.KindWrite:
							if a.DataEnd >= b.DataEnd {
								t.Fatalf("%s line %#x: WAW violated: write#%d (drain %d) vs later write#%d (drain %d)",
									mech, line, a.ID, a.DataEnd, b.ID, b.DataEnd)
							}
						case a.Kind == memctrl.KindRead && b.Kind == memctrl.KindWrite:
							if !a.Forwarded && a.DataEnd >= b.DataEnd {
								t.Fatalf("%s line %#x: WAR violated: read#%d (data %d) vs later write#%d (drain %d)",
									mech, line, a.ID, a.DataEnd, b.ID, b.DataEnd)
							}
						case a.Kind == memctrl.KindWrite && b.Kind == memctrl.KindRead:
							// RAW: the read must be forwarded or wait
							// for the write's data.
							if !b.Forwarded && b.DataEnd <= a.DataEnd {
								t.Fatalf("%s line %#x: RAW violated: write#%d (drain %d) vs later read#%d (data %d)",
									mech, line, a.ID, a.DataEnd, b.ID, b.DataEnd)
							}
						}
					}
				}
			}
		})
	}
}
