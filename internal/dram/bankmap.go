package dram

import (
	"fmt"
	"math/bits"
)

// BankMap numbers a channel's banks with one flat index f = rank·banks +
// bank, so every per-bank set of a channel is one uint64 and ascending f
// visits ranks in order, banks in order within a rank. Banks per rank is a
// power of two, so the rank is f >> log2(banks).
type BankMap struct {
	shift uint   // log2(banks per rank)
	rank0 uint64 // rank 0's banks
}

// NewBankMap builds the map for a channel of ranks × banks per rank. It
// rejects a geometry it cannot number: banks per rank must be a power of
// two, and the channel's banks must fit one uint64.
func NewBankMap(ranks, banks int) (BankMap, error) {
	if banks < 1 || banks&(banks-1) != 0 {
		return BankMap{}, fmt.Errorf("dram: %d banks per rank is not a power of two", banks)
	}
	if n := ranks * banks; n > 64 {
		return BankMap{}, fmt.Errorf("dram: %d ranks × %d banks = %d banks per channel exceeds the 64 supported",
			ranks, banks, n)
	}
	return BankMap{shift: uint(bits.TrailingZeros(uint(banks))), rank0: ^uint64(0) >> uint(64-banks)}, nil
}

// Index returns the bank's flat index.
func (m BankMap) Index(rank, bank int) int { return rank<<m.shift | bank }

// Split returns the rank and bank of a flat index.
func (m BankMap) Split(f int) (rank, bank int) { return f >> m.shift, f & (1<<m.shift - 1) }

// RankMask returns the set of the rank's banks.
func (m BankMap) RankMask(rank int) uint64 { return m.rank0 << (uint(rank) << m.shift) }
