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

	"burstmem"
)

// oldestFirst is the custom mechanism. One instance drives one channel.
//
// queues holds one FIFO per bank, indexed like every bank argument and
// mask bit of the engine: f = rank·banks + bank (Engine.BankMap).
type oldestFirst struct {
	host   *burstmem.Host
	engine *burstmem.Engine
	queues [][]*burstmem.Access
}

// newOldestFirst is the factory registered with the controller.
func newOldestFirst(h *burstmem.Host) burstmem.Mechanism {
	ch := h.Channel()
	return &oldestFirst{
		host:   h,
		engine: burstmem.NewEngine(h, nil),
		queues: make([][]*burstmem.Access, ch.Ranks()*ch.Banks()),
	}
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
	f := a.FlatBank(m.engine.BankMap())
	m.queues[f] = append(m.queues[f], a)
}

// Tick implements burstmem.Mechanism: refill every idle bank with its
// oldest access, then issue the oldest unblocked transaction.
func (m *oldestFirst) Tick(now uint64) {
	for f, q := range m.queues {
		if len(q) == 0 || m.engine.Ongoing(f) != nil {
			continue
		}
		m.engine.SetOngoing(q[0])
		m.queues[f] = q[1:]
	}
	// Unblocked masks the banks whose next transaction can issue this
	// cycle (none while the refresh engine holds the command slot); fold
	// them into the oldest access's bank.
	if cl, any := m.engine.Unblocked(now); any {
		m.engine.Issue(m.engine.FoldOldest(cl.All(), -1), now)
	}
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
