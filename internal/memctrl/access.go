// Package memctrl provides the memory-controller chassis shared by every
// access reordering mechanism: the access abstraction, the shared access
// pool (paper Table 3: 256 entries, at most 64 writes), write-queue RAW
// forwarding, per-bank transaction stepping, completion scheduling and the
// controller statistics the paper's evaluation reports (latency, row
// outcome, outstanding-access distribution, write-queue saturation, bus
// utilization).
//
// A scheduling mechanism (package core implements the paper's burst
// scheduling; package sched the baselines) plugs in as a Mechanism: it owns
// the queues and decides, each memory cycle, which SDRAM transaction to
// issue on its channel.
package memctrl

import (
	"fmt"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
)

// Kind distinguishes memory reads from writes.
type Kind int

// Access kinds. Reads return data to the CPU; writes complete immediately
// from the CPU's view once accepted (paper Section 3.1).
const (
	KindRead Kind = iota
	KindWrite
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindRead {
		return "read"
	}
	return "write"
}

// Access is one main-memory access (a lowest-level-cache miss or
// writeback). An access may require up to three SDRAM transactions —
// precharge, activate, column — depending on bank state.
type Access struct {
	ID   uint64
	Kind Kind
	Addr uint64
	Loc  addrmap.Loc

	// Arrival is the memory cycle the access was accepted into the
	// controller pool.
	Arrival uint64
	// Start is the cycle the access's first transaction issued.
	Start uint64
	// DataEnd is the cycle after the access's last data beat.
	DataEnd uint64
	// Outcome is the row outcome observed when the access started.
	Outcome dram.RowOutcome
	// Forwarded marks a read satisfied from the write queue.
	Forwarded bool

	// OnComplete, when set, runs when the access's data finishes (reads:
	// data returned; writes: drained to the device).
	OnComplete func(a *Access, now uint64)

	started bool

	// san is the build-tag-gated pool-lifecycle sanitizer (see
	// sanitize_on.go); zero-size with no-op methods unless built with
	// -tags invariants.
	san accessSan

	// next/prev link the access into one intrusive AccessList (a
	// mechanism's per-bank queue, or the controller's free list). An
	// access is on at most one list at a time.
	next, prev *Access
}

// Next returns the following access in the list this access is linked
// into, or nil at the tail. Iterate with:
//
//	for a := l.Front(); a != nil; a = a.Next() { ... }
func (a *Access) Next() *Access { return a.next }

// AccessList is an intrusive doubly-linked list of accesses. Push, pop and
// removal are O(1) and allocation-free; mechanisms use one per bank so
// arbitration never splices slices.
type AccessList struct {
	head, tail *Access
	n          int
}

// Len returns the number of linked accesses.
func (l *AccessList) Len() int { return l.n }

// Empty reports whether the list has no accesses.
func (l *AccessList) Empty() bool { return l.n == 0 }

// Front returns the head access, or nil when empty.
func (l *AccessList) Front() *Access { return l.head }

// PushBack appends a at the tail. a must not be on any list.
func (l *AccessList) PushBack(a *Access) {
	a.san.checkLive(a, "list link")
	a.prev = l.tail
	a.next = nil
	if l.tail != nil {
		l.tail.next = a
	} else {
		l.head = a
	}
	l.tail = a
	l.n++
}

// PushFront prepends a at the head. a must not be on any list.
func (l *AccessList) PushFront(a *Access) {
	a.san.checkLive(a, "list link")
	a.next = l.head
	a.prev = nil
	if l.head != nil {
		l.head.prev = a
	} else {
		l.tail = a
	}
	l.head = a
	l.n++
}

// Remove unlinks a, which must be on this list.
func (l *AccessList) Remove(a *Access) {
	if a.prev != nil {
		a.prev.next = a.next
	} else {
		l.head = a.next
	}
	if a.next != nil {
		a.next.prev = a.prev
	} else {
		l.tail = a.prev
	}
	a.next, a.prev = nil, nil
	l.n--
}

// PopFront unlinks and returns the head access; nil when empty.
func (l *AccessList) PopFront() *Access {
	a := l.head
	if a != nil {
		l.Remove(a)
	}
	return a
}

// Started reports whether the access has issued its first transaction.
func (a *Access) Started() bool { return a.started }

// Target returns the access's DRAM command target within its channel.
func (a *Access) Target() dram.Target {
	return dram.Target{
		Rank: int(a.Loc.Rank),
		Bank: int(a.Loc.Bank),
		Row:  a.Loc.Row,
		Col:  a.Loc.Col,
	}
}

// FlatBank returns the flat index of the access's bank under the channel's
// numbering (dram.Channel.BankMap).
func (a *Access) FlatBank(m dram.BankMap) int { return m.Index(int(a.Loc.Rank), int(a.Loc.Bank)) }

// LineAddr returns the cache-line-aligned address used for RAW forwarding.
func (a *Access) LineAddr(lineBytes int) uint64 {
	return a.Addr &^ uint64(lineBytes-1)
}

// String renders the access for traces and error messages.
func (a *Access) String() string {
	return fmt.Sprintf("%s#%d@%s", a.Kind, a.ID, a.Loc)
}

// Mechanism is one access reordering policy driving one channel.
//
// The controller guarantees Enqueue is only called when the shared pool has
// space, and Tick is called once per memory cycle after the channel's
// refresh engine ran. A mechanism issues at most one transaction per Tick,
// and only when its channel's command slot is free.
type Mechanism interface {
	// Name returns the mechanism's table name (e.g. "Burst_TH").
	Name() string
	// Enqueue admits an access into the mechanism's queues.
	Enqueue(a *Access, now uint64)
	// Tick lets the mechanism refill bank arbiters and issue at most one
	// transaction.
	Tick(now uint64)
	// Pending returns the channel's pending reads and writes. Every
	// mechanism answers Host.Pending; the method remains because the
	// benchmark harness under bench/ still forwards it.
	Pending() (reads, writes int)
	// ForwardsWrites reports whether reads should be satisfied from the
	// pending-write pool (paper Fig. 4). In-order mechanisms that never
	// let reads pass writes return false.
	ForwardsWrites() bool
}

// Factory builds a Mechanism for one channel. The Host gives the mechanism
// access to its channel, configuration and completion plumbing.
type Factory func(h *Host) Mechanism
