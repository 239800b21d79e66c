package core

import (
	"burstmem/internal/memctrl"
)

// Dynamic threshold — the paper's first future-work item (Section 7):
// "A dynamical threshold, which is calculated on the fly based on some
// critical parameters such as read write ratios, will match access
// patterns of different benchmarks for further performance improvement."
//
// The implementation recomputes the read-preemption/write-piggybacking
// pivot every AdaptInterval memory cycles from the write share of accesses
// that arrived during the interval: write-heavy phases lower the threshold
// (piggyback early, keep the queue clear), read-heavy phases raise it
// (preempt aggressively, writes can wait). The mapping is linear:
//
//	threshold = MaxWrites * (1 - slope * writeShare)
//
// clamped to [minThreshold, MaxWrites]. With slope 1.5 a 10% write stream
// runs near Burst_RP behaviour and a 50% write stream near Burst_WP.
const (
	// AdaptInterval is the reclassification period in memory cycles.
	AdaptInterval = 1024
	// adaptSlope scales how strongly the write share depresses the
	// threshold.
	adaptSlope = 1.5
	// minDynamicThreshold keeps a little preemption headroom even in
	// write-storms, so a truly critical read is never forced to wait for
	// a full burst of piggybacked writes.
	minDynamicThreshold = 4
)

// NameBurstDyn is the mechanism name of the dynamic-threshold variant.
const NameBurstDyn = "Burst_DYN"

// BurstDynTH returns burst scheduling with the adaptive threshold.
func BurstDynTH() memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism {
		s := newBurst(h, NameBurstDyn, Options{
			ReadPreemption: true,
			WritePiggyback: true,
			// Start balanced; the first interval will recalibrate.
			Threshold: h.Config().MaxWrites / 2,
		})
		s.dynamic = true
		return s
	}
}

// adaptThreshold recomputes the threshold from the last interval's arrival
// mix. Called from Tick on interval boundaries.
//
//burstmem:hotpath
func (s *burstSched) adaptThreshold(now uint64) {
	if now < s.nextAdapt {
		return
	}
	s.nextAdapt = now + AdaptInterval
	total := s.intervalReads + s.intervalWrites
	if total == 0 {
		return // idle interval: keep the current threshold
	}
	writeShare := float64(s.intervalWrites) / float64(total)
	maxW := s.host.Config().MaxWrites
	th := int(float64(maxW) * (1 - adaptSlope*writeShare))
	if th < minDynamicThreshold {
		th = minDynamicThreshold
	}
	if th > maxW {
		th = maxW
	}
	s.opt.Threshold = th
	s.intervalReads, s.intervalWrites = 0, 0
}
