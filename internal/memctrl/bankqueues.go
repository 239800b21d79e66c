package memctrl

import "math/bits"

// BankMap numbers a channel's banks with one flat index f = rank·banks +
// bank, so every per-bank set of a channel is one uint64 (Config.Validate
// caps Ranks × Banks at 64) and ascending f visits ranks in order, banks in
// order within a rank. Banks per rank is a power of two, so the rank is
// f >> log2(banks).
type BankMap struct {
	shift uint   // log2(banks per rank)
	rank0 uint64 // rank 0's banks
}

// NewBankMap builds the map for a channel with the given banks per rank.
func NewBankMap(banks int) BankMap {
	return BankMap{shift: uint(bits.TrailingZeros(uint(banks))), rank0: ^uint64(0) >> uint(64-banks)}
}

// Index returns the bank's flat index.
func (m BankMap) Index(rank, bank int) int { return rank<<m.shift | bank }

// Of returns the flat index of the access's bank.
func (m BankMap) Of(a *Access) int { return m.Index(int(a.Loc.Rank), int(a.Loc.Bank)) }

// Split returns the rank and bank of a flat index.
func (m BankMap) Split(f int) (rank, bank int) { return f >> m.shift, f & (1<<m.shift - 1) }

// RankMask returns the set of the rank's banks.
func (m BankMap) RankMask(rank int) uint64 { return m.rank0 << (uint(rank) << m.shift) }

// BankQueues is a per-bank set of intrusive access FIFOs with one
// nonempty-bank bitmap per channel, the queue structure shared by the
// scheduling mechanisms. Push/pop/remove are O(1); finding banks with
// queued work is a bitmap walk (bits.TrailingZeros64) instead of a scan
// over every rank×bank slot.
type BankQueues struct {
	idx BankMap
	qs  []AccessList // by flat bank index
	ne  uint64       // nonempty banks
}

// NewBankQueues builds queues for a ranks×banks channel.
func NewBankQueues(ranks, banks int) *BankQueues {
	return &BankQueues{idx: NewBankMap(banks), qs: make([]AccessList, ranks*banks)}
}

// List returns the bank's queue.
func (q *BankQueues) List(f int) *AccessList { return &q.qs[f] }

// Mask returns the nonempty-bank bitmap.
func (q *BankQueues) Mask() uint64 { return q.ne }

// PushBack appends a to its bank's queue (keyed by a.Loc).
//
//burstmem:hotpath
func (q *BankQueues) PushBack(a *Access) {
	f := q.idx.Of(a)
	q.qs[f].PushBack(a)
	q.ne |= 1 << uint(f)
}

// PushFront prepends a to its bank's queue (e.g. a preempted write going
// back to the head).
//
//burstmem:hotpath
func (q *BankQueues) PushFront(a *Access) {
	f := q.idx.Of(a)
	q.qs[f].PushFront(a)
	q.ne |= 1 << uint(f)
}

// Remove unlinks a from its bank's queue.
//
//burstmem:hotpath
func (q *BankQueues) Remove(a *Access) {
	f := q.idx.Of(a)
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
