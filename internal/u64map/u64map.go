// Package u64map provides a small open-addressed hash table from uint64
// keys to arbitrary values, replacing Go maps on simulator hot paths: the
// cache MSHR, FSB in-flight, and write-forwarding lookups. It does the job
// with one multiply and a short linear probe, and never allocates once
// warmed to its working size.
//
// The runtime map's hashed access (mapaccess/mapassign/mapdelete) dominated
// those lookups in profiles taken before Go 1.24's Swiss-table maps. On Go
// 1.24, a copy of the simulator backed by the built-in map still ran a
// Figure 10 subset (5 profiles x 8 mechanisms at 100k+100k instructions)
// about 10% slower in user time than this table: median 5.48 s against
// 4.98 s, slower in all 4 interleaved pairs on a 2-CPU host.
//
// The table is deterministic: no per-process hash seed, no iteration order
// (iteration is deliberately not offered — detlint bans map iteration in
// simulation packages for the same reason).
package u64map

// Map is an open-addressed linear-probe table. Keys are stored biased by +1
// so the zero slot word means "empty" and key 0 remains usable. Deletion
// uses backward-shift compaction, so there are no tombstones and probe
// chains stay short. The zero value is not usable; call New.
type Map[V any] struct {
	keys []uint64 // key+1; 0 = empty
	vals []V
	mask uint64
	n    int
	zero V
}

// New returns a map pre-sized to hold hint entries without growing. The
// backing array is at least 4x the hint, keeping the load factor ≤ 25% for
// bounded working sets (MSHRs, pool slots) so probes stay ~1 slot long.
func New[V any](hint int) *Map[V] {
	size := 8
	for size < 4*hint {
		size <<= 1
	}
	return &Map[V]{
		keys: make([]uint64, size),
		vals: make([]V, size),
		mask: uint64(size - 1),
	}
}

// slot hashes k to its ideal slot with a Fibonacci multiply.
func (m *Map[V]) slot(k uint64) uint64 {
	return ((k + 1) * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value stored under k, and whether it was present.
func (m *Map[V]) Get(k uint64) (V, bool) {
	for i := m.slot(k); ; i = (i + 1) & m.mask {
		kk := m.keys[i]
		if kk == k+1 {
			return m.vals[i], true
		}
		if kk == 0 {
			return m.zero, false
		}
	}
}

// Put stores v under k, replacing any existing entry.
func (m *Map[V]) Put(k uint64, v V) {
	for i := m.slot(k); ; i = (i + 1) & m.mask {
		kk := m.keys[i]
		if kk == k+1 {
			m.vals[i] = v
			return
		}
		if kk == 0 {
			if 2*(m.n+1) > len(m.keys) {
				// Growth is the amortized slow path; New pre-sizes past it for bounded sets.
				m.grow()
				m.Put(k, v)
				return
			}
			m.keys[i] = k + 1
			m.vals[i] = v
			m.n++
			return
		}
	}
}

// Delete removes k's entry if present, compacting the probe chain behind it
// (backward-shift deletion) so lookups never chase tombstones.
func (m *Map[V]) Delete(k uint64) {
	i := m.slot(k)
	for ; ; i = (i + 1) & m.mask {
		kk := m.keys[i]
		if kk == 0 {
			return
		}
		if kk == k+1 {
			break
		}
	}
	m.n--
	// Shift later chain members back over the hole until a gap or an
	// entry already sitting in its ideal slot.
	hole := i
	for j := (i + 1) & m.mask; ; j = (j + 1) & m.mask {
		kk := m.keys[j]
		if kk == 0 {
			break
		}
		ideal := m.slot(kk - 1)
		// The entry at j may move back to the hole only if its ideal slot
		// does not lie strictly between the hole and j (cyclically).
		if (j-ideal)&m.mask >= (j-hole)&m.mask {
			m.keys[hole] = kk
			m.vals[hole] = m.vals[j]
			hole = j
		}
	}
	m.keys[hole] = 0
	m.vals[hole] = m.zero
}

// grow doubles the backing array and rehashes every entry.
func (m *Map[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint64, 2*len(oldKeys))
	m.vals = make([]V, 2*len(oldVals))
	m.mask = uint64(len(m.keys) - 1)
	m.n = 0
	for i, kk := range oldKeys {
		if kk != 0 {
			m.Put(kk-1, oldVals[i])
		}
	}
}
