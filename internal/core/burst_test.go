package core

import (
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
	"burstmem/internal/mctest"
	"burstmem/internal/memctrl"
)

func fig1Config() memctrl.Config {
	cfg := mctest.SmallConfig(dram.Figure1Timing())
	g := cfg.Geometry
	g.Banks = 2
	cfg.Geometry = g
	return cfg
}

// TestFigure1OutOfOrder reproduces paper Figure 1(b): the same four reads
// that take 28 cycles strictly in order (see the dram package test) finish
// in about 16 cycles under burst scheduling, because access3 is reordered
// ahead of access2 (turning its row conflict into a row hit) and
// transactions interleave across banks.
func TestFigure1OutOfOrder(t *testing.T) {
	r, err := mctest.NewRunner(fig1Config(), Burst())
	if err != nil {
		t.Fatal(err)
	}
	seq := []addrmap.Loc{
		{Bank: 0, Row: 0}, // access0: row empty
		{Bank: 1, Row: 0}, // access1: row empty
		{Bank: 0, Row: 1}, // access2: row conflict
		{Bank: 0, Row: 0}, // access3: joins access0's burst -> row hit
	}
	var accs []*memctrl.Access
	for _, loc := range seq {
		a, err := r.SubmitLoc(memctrl.KindRead, loc)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, a)
	}
	end, err := r.RunUntilDrained(1000)
	if err != nil {
		t.Fatal(err)
	}
	if end > 17 {
		t.Errorf("out-of-order completion = %d cycles, paper Figure 1(b) shows ~16", end)
	}
	// Access3 must be reordered before access2 and become a row hit.
	if r.DoneAt[accs[3].ID] >= r.DoneAt[accs[2].ID] {
		t.Errorf("access3 (%d) not reordered ahead of access2 (%d)",
			r.DoneAt[accs[3].ID], r.DoneAt[accs[2].ID])
	}
	if accs[3].Outcome != dram.RowHit {
		t.Errorf("access3 outcome = %v, want row hit via burst clustering", accs[3].Outcome)
	}
	if accs[2].Outcome != dram.RowConflict {
		t.Errorf("access2 outcome = %v, want row conflict", accs[2].Outcome)
	}
}

// TestBurstClustering: reads to one row form a single burst whose data
// transfers are back to back on the data bus.
func TestBurstClustering(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	r, err := mctest.NewRunner(cfg, Burst())
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var accs []*memctrl.Access
	for i := 0; i < n; i++ {
		a, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 1, Row: 7, Col: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, a)
	}
	if _, err := r.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	// First access is a row empty; the rest are hits.
	if accs[0].Outcome != dram.RowEmpty {
		t.Errorf("first access outcome %v, want row empty", accs[0].Outcome)
	}
	gap := uint64(cfg.Timing.DataCycles())
	for i := 1; i < n; i++ {
		if accs[i].Outcome != dram.RowHit {
			t.Errorf("access %d outcome %v, want row hit", i, accs[i].Outcome)
		}
		if accs[i].DataEnd != accs[i-1].DataEnd+gap {
			t.Errorf("access %d data end %d, want back-to-back %d",
				i, accs[i].DataEnd, accs[i-1].DataEnd+gap)
		}
	}
}

func noRefresh(t dram.Timing) dram.Timing {
	t.TREFI = 0
	return t
}

// TestWritesWaitForReads: with no piggybacking and an unsaturated write
// queue, queued writes to a bank run only after that bank's reads drain.
func TestWritesWaitForReads(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	r, err := mctest.NewRunner(cfg, Burst())
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.SubmitLoc(memctrl.KindWrite, addrmap.Loc{Bank: 0, Row: 1, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	var reads []*memctrl.Access
	for i := 0; i < 4; i++ {
		a, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 2, Col: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, a)
	}
	if _, err := r.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	for i, rd := range reads {
		if r.DoneAt[rd.ID] >= r.DoneAt[w.ID] {
			t.Errorf("read %d completed at %d, after the older write at %d",
				i, r.DoneAt[rd.ID], r.DoneAt[w.ID])
		}
	}
}

// TestReadPreemption: an ongoing write is interrupted by a newly arrived
// read under Burst_RP, and the preempted write still completes correctly.
func TestReadPreemption(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	r, err := mctest.NewRunner(cfg, BurstRP())
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.SubmitLoc(memctrl.KindWrite, addrmap.Loc{Bank: 0, Row: 1, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Let the write become ongoing and issue its activate, but arrive
	// with the read before its column can issue (tRCD window).
	r.Step(3)
	rd, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 2, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	mech := mechOf(t, r)
	if mech.Stats.Preemptions == 0 {
		t.Fatal("no preemption recorded")
	}
	if r.DoneAt[rd.ID] >= r.DoneAt[w.ID] {
		t.Errorf("read at %d did not beat preempted write at %d", r.DoneAt[rd.ID], r.DoneAt[w.ID])
	}
}

// TestPreemptedWriteMakesRowEmpty reproduces the paper's Section 5.2
// observation: a write interrupted after precharging but before activating
// leaves the bank closed, so the preempting read observes a row empty.
func TestPreemptedWriteMakesRowEmpty(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	r, err := mctest.NewRunner(cfg, BurstRP())
	if err != nil {
		t.Fatal(err)
	}
	// Open row 5 with a read, then send a conflicting write which must
	// precharge first.
	if _, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 5, Col: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubmitLoc(memctrl.KindWrite, addrmap.Loc{Bank: 0, Row: 1, Col: 0}); err != nil {
		t.Fatal(err)
	}
	// Step until the write's precharge has closed the bank (its activate
	// is still tRP away), then arrive with the read.
	for i := 0; ; i++ {
		if _, open := r.Ctrl.Channel(0).OpenRow(0, 0); !open {
			break
		}
		if i > 100 {
			t.Fatal("write never precharged the bank")
		}
		r.Step(1)
	}
	rd, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 6, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	if rd.Outcome != dram.RowEmpty {
		t.Errorf("preempting read outcome = %v, want row empty (bank precharged by interrupted write)", rd.Outcome)
	}
}

// TestWritePiggybacking: with Burst_WP, a write to the burst's row runs
// immediately after the burst as a row hit, ahead of reads to other rows.
func TestWritePiggybacking(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	r, err := mctest.NewRunner(cfg, BurstWP())
	if err != nil {
		t.Fatal(err)
	}
	// A burst of two reads to row 3, a write to row 3 (qualified) and a
	// read to row 9 (next burst).
	for i := 0; i < 2; i++ {
		if _, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 3, Col: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := r.SubmitLoc(memctrl.KindWrite, addrmap.Loc{Bank: 0, Row: 3, Col: 7})
	if err != nil {
		t.Fatal(err)
	}
	other, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 9, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	mech := mechOf(t, r)
	if mech.Stats.PiggybackedWrites == 0 {
		t.Fatal("no write piggybacked")
	}
	if w.Outcome != dram.RowHit {
		t.Errorf("piggybacked write outcome = %v, want row hit", w.Outcome)
	}
	if r.DoneAt[w.ID] >= r.DoneAt[other.ID] {
		t.Errorf("piggybacked write at %d should finish before the next burst's read at %d",
			r.DoneAt[w.ID], r.DoneAt[other.ID])
	}
}

// TestBurstOrderingFIFO: bursts within a bank are served in arrival order
// of their first access, preventing starvation of small bursts.
func TestBurstOrderingFIFO(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	r, err := mctest.NewRunner(cfg, Burst())
	if err != nil {
		t.Fatal(err)
	}
	small, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 1, Col: 0})
	if err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	// A bigger, younger burst to another row of the same bank.
	var big []*memctrl.Access
	for i := 0; i < 4; i++ {
		a, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 2, Col: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		big = append(big, a)
	}
	if _, err := r.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	for _, a := range big {
		if r.DoneAt[small.ID] >= r.DoneAt[a.ID] {
			t.Fatalf("older single-access burst (done %d) starved by younger burst (done %d)",
				r.DoneAt[small.ID], r.DoneAt[a.ID])
		}
	}
}

// TestRAWForwarding: a read to a pending write's line is satisfied from the
// write queue and completes in ForwardLatency cycles.
func TestRAWForwarding(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	r, err := mctest.NewRunner(cfg, Burst())
	if err != nil {
		t.Fatal(err)
	}
	loc := addrmap.Loc{Bank: 2, Row: 4, Col: 9}
	// Keep the bank busy so the write stays queued.
	for i := 0; i < 8; i++ {
		if _, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 2, Row: 1, Col: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.SubmitLoc(memctrl.KindWrite, loc); err != nil {
		t.Fatal(err)
	}
	rd, err := r.SubmitLoc(memctrl.KindRead, loc)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Forwarded {
		t.Fatal("read to pending write line was not forwarded")
	}
	if _, err := r.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	if got, want := rd.DataEnd-rd.Arrival, uint64(memctrl.ForwardLatency); got != want {
		t.Errorf("forwarded read latency = %d, want %d", got, want)
	}
	if r.Ctrl.Stats.ForwardedReads != 1 {
		t.Errorf("forwarded reads = %d, want 1", r.Ctrl.Stats.ForwardedReads)
	}
}

// TestThresholdSwitch: under Burst_TH, preemption happens below the
// threshold and piggybacking above it.
func TestThresholdSwitch(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	cfg.MaxWrites = 8
	r, err := mctest.NewRunner(cfg, BurstTH(4))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the write queue beyond the threshold with same-row writes.
	for i := 0; i < 6; i++ {
		if _, err := r.SubmitLoc(memctrl.KindWrite, addrmap.Loc{Bank: 0, Row: 3, Col: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// One read burst to the same bank and row.
	if _, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 3, Col: 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUntilDrained(20000); err != nil {
		t.Fatal(err)
	}
	mech := mechOf(t, r)
	if mech.Stats.PiggybackedWrites == 0 {
		t.Errorf("above threshold: expected piggybacked writes, stats = %+v", mech.Stats)
	}
}

// TestBurstStatsCounts sanity-checks the burst statistics counters.
func TestBurstStatsCounts(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	r, err := mctest.NewRunner(cfg, Burst())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 1, Col: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.SubmitLoc(memctrl.KindRead, addrmap.Loc{Bank: 0, Row: 2, Col: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	mech := mechOf(t, r)
	if mech.Stats.BurstsFormed != 2 {
		t.Errorf("bursts formed = %d, want 2", mech.Stats.BurstsFormed)
	}
	if mech.Stats.ReadsJoinedBursts != 2 {
		t.Errorf("reads joined = %d, want 2", mech.Stats.ReadsJoinedBursts)
	}
	if mech.Stats.MaxBurstLen != 3 {
		t.Errorf("max burst length = %d, want 3", mech.Stats.MaxBurstLen)
	}
}

// TestVariantNames checks Table 4 naming.
func TestVariantNames(t *testing.T) {
	cfg := mctest.SmallConfig(noRefresh(dram.DDR2_800()))
	for _, tc := range []struct {
		factory memctrl.Factory
		want    string
	}{
		{Burst(), "Burst"},
		{BurstRP(), "Burst_RP"},
		{BurstWP(), "Burst_WP"},
		{BurstTH(52), "Burst_TH52"},
	} {
		r, err := mctest.NewRunner(cfg, tc.factory)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Ctrl.MechanismName(); got != tc.want {
			t.Errorf("name = %q, want %q", got, tc.want)
		}
	}
}

// mechOf extracts the burst mechanism from a single-channel test runner.
func mechOf(t *testing.T, r *mctest.Runner) *burstSched {
	t.Helper()
	m, ok := r.Ctrl.Mechanism(0).(*burstSched)
	if !ok {
		t.Fatalf("mechanism is %T, want *burstSched", r.Ctrl.Mechanism(0))
	}
	return m
}
