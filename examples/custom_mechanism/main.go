// Custom mechanism: implement a new access reordering policy against the
// public API and race it against the built-ins at the controller level
// (no CPU model — accesses are injected directly).
//
// The policy here is "oldest first, fully out of order": every bank runs
// its oldest access, and among unblocked transactions the oldest access's
// transaction issues (a FR-FCFS ancestor without the row-hit rule). It
// beats the serial in-order scheduler through bank parallelism but loses
// to burst scheduling because it never clusters row hits.
//
//	go run ./examples/custom_mechanism
package main

import (
	"fmt"
	"log"
	"sort"

	"burstmem"
)

// oldestFirst is the custom mechanism. One instance drives one channel.
//
// keys mirrors the map's key set in sorted (rank, bank) order: Tick must
// visit banks deterministically, and ranging over the map directly would
// put Go's randomized iteration order in the simulated timeline.
type oldestFirst struct {
	host   *burstmem.Host
	engine *burstmem.Engine
	queues map[[2]int][]*burstmem.Access
	keys   [][2]int
}

// newOldestFirst is the factory registered with the controller.
func newOldestFirst(h *burstmem.Host) burstmem.Mechanism {
	m := &oldestFirst{host: h, queues: make(map[[2]int][]*burstmem.Access)}
	m.engine = burstmem.NewEngine(h, nil)
	return m
}

// Name implements burstmem.Mechanism.
func (m *oldestFirst) Name() string { return "OldestFirst" }

// ForwardsWrites implements burstmem.Mechanism: reads may pass older
// writes, so matching reads must be forwarded from the write queue.
func (m *oldestFirst) ForwardsWrites() bool { return true }

// Pending implements burstmem.Mechanism: the host counts pending accesses.
func (m *oldestFirst) Pending() (int, int) { return m.host.Pending() }

// Enqueue implements burstmem.Mechanism.
func (m *oldestFirst) Enqueue(a *burstmem.Access, now uint64) {
	key := [2]int{int(a.Loc.Rank), int(a.Loc.Bank)}
	if _, ok := m.queues[key]; !ok {
		i := sort.Search(len(m.keys), func(i int) bool {
			k := m.keys[i]
			return k[0] > key[0] || (k[0] == key[0] && k[1] >= key[1])
		})
		m.keys = append(m.keys, [2]int{})
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = key
	}
	m.queues[key] = append(m.queues[key], a)
}

// Tick implements burstmem.Mechanism: refill every idle bank with its
// oldest access, then issue the oldest unblocked transaction. Banks are
// visited through the sorted key mirror, never by ranging the map.
func (m *oldestFirst) Tick(now uint64) {
	for _, key := range m.keys {
		q := m.queues[key]
		if len(q) == 0 || m.engine.Ongoing(key[0], key[1]) != nil {
			continue
		}
		m.engine.SetOngoing(key[0], key[1], q[0])
		m.queues[key] = q[1:]
	}
	// Unblocked masks, per rank, the banks whose next transaction can
	// issue this cycle (none while the refresh engine holds the command
	// slot); fold them into the oldest access's bank.
	cl, any := m.engine.Unblocked(now)
	if !any {
		return
	}
	rank, bank := -1, -1
	for r := 0; r < m.host.Channel().Ranks(); r++ {
		rank, bank = m.engine.FoldOldest(r, cl.Rank(r), rank, bank)
	}
	m.engine.Issue(rank, bank, now)
}

func main() {
	prof := burstmem.Profile{
		Name:         "mixed",
		MemFraction:  0.25,
		StreamWeight: 0.6, RandomWeight: 0.4,
		StoreFraction: 0.3,
		Streams:       3,
		StrideBytes:   64,
		WorkingSet:    256 << 20,
		Seed:          42,
	}
	cfg := burstmem.DefaultConfig()
	cfg.WarmupInstructions = 60_000
	cfg.Instructions = 120_000

	fmt.Printf("%-12s %10s %9s %9s %9s\n", "mechanism", "cycles", "rd lat", "row hit", "data bus")
	show := func(name string, factory burstmem.MechanismFactory) {
		res, err := burstmem.Run(cfg, prof, factory)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10d %9.1f %8.1f%% %8.1f%%\n",
			name, res.CPUCycles, res.ReadLatency, res.RowHit*100, res.DataBusUtil*100)
	}
	for _, name := range []string{"InOrder", "BkInOrder", "Burst_TH"} {
		f, err := burstmem.MechanismByName(name)
		if err != nil {
			log.Fatal(err)
		}
		show(name, f)
	}
	show("OldestFirst", newOldestFirst)
	fmt.Println("\nOldestFirst recovers bank parallelism but not row locality: it lands between")
	fmt.Println("the in-order baseline and burst scheduling.")
}
