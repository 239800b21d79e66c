package memctrl

import "burstmem/internal/dram"

// BankQueues is a per-bank set of intrusive access FIFOs with one
// nonempty-bank bitmap per channel, the queue structure shared by the
// scheduling mechanisms. Push/pop/remove are O(1); finding banks with
// queued work is a bitmap walk (bits.TrailingZeros64) instead of a scan
// over every rank×bank slot.
type BankQueues struct {
	idx dram.BankMap
	qs  []AccessList // by flat bank index
	ne  uint64       // nonempty banks
}

// NewBankQueues builds queues for the channel's banks, numbered by its
// BankMap.
func NewBankQueues(ch *dram.Channel) *BankQueues {
	return &BankQueues{idx: ch.BankMap(), qs: make([]AccessList, ch.Ranks()*ch.Banks())}
}

// List returns the bank's queue.
func (q *BankQueues) List(f int) *AccessList { return &q.qs[f] }

// Mask returns the nonempty-bank bitmap.
func (q *BankQueues) Mask() uint64 { return q.ne }

// PushBack appends a to its bank's queue (keyed by a.Loc).
//
//burstmem:hotpath
func (q *BankQueues) PushBack(a *Access) {
	f := a.FlatBank(q.idx)
	q.qs[f].PushBack(a)
	q.ne |= 1 << uint(f)
}

// PushFront prepends a to its bank's queue (e.g. a preempted write going
// back to the head).
//
//burstmem:hotpath
func (q *BankQueues) PushFront(a *Access) {
	f := a.FlatBank(q.idx)
	q.qs[f].PushFront(a)
	q.ne |= 1 << uint(f)
}

// Remove unlinks a from its bank's queue.
//
//burstmem:hotpath
func (q *BankQueues) Remove(a *Access) {
	f := a.FlatBank(q.idx)
	l := &q.qs[f]
	l.Remove(a)
	if l.Empty() {
		q.ne &^= 1 << uint(f)
	}
}

// PopFront unlinks and returns the bank's head access; nil when empty.
//
//burstmem:hotpath
func (q *BankQueues) PopFront(f int) *Access {
	l := &q.qs[f]
	a := l.PopFront()
	if l.Empty() {
		q.ne &^= 1 << uint(f)
	}
	return a
}
