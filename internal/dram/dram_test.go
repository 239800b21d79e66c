package dram

import "testing"

// noRefresh disables refresh so single-access latency tests see idle busses.
func noRefresh(t Timing) Timing {
	t.TREFI = 0
	return t
}

// stepper drives a channel cycle by cycle in tests.
type stepper struct {
	t   *testing.T
	ch  *Channel
	cyc uint64
}

func newStepper(t *testing.T, timing Timing, ranks, banks int) *stepper {
	t.Helper()
	ch, err := NewChannel(timing, ranks, banks)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	s := &stepper{t: t, ch: ch}
	s.ch.Tick(0)
	return s
}

// tick advances one cycle.
func (s *stepper) tick() {
	s.cyc++
	s.ch.Tick(s.cyc)
}

// issue advances cycles until cmd is unblocked (bounded), then issues it.
func (s *stepper) issue(cmd Cmd, tg Target, ap bool) (uint64, IssueResult) {
	s.t.Helper()
	for i := 0; i < 100000; i++ {
		if s.ch.CanIssue(cmd, tg) {
			res := s.ch.Issue(cmd, tg, ap)
			at := s.cyc
			s.tick()
			return at, res
		}
		s.tick()
	}
	s.t.Fatalf("command %v %+v never unblocked", cmd, tg)
	return 0, IssueResult{}
}

// access performs a full access (precharge/activate as needed + column) and
// returns the cycle of the first command, the data window and the outcome.
func (s *stepper) access(tg Target, read, ap bool) (first uint64, res IssueResult, outcome RowOutcome) {
	s.t.Helper()
	outcome = s.ch.Classify(tg)
	first = ^uint64(0)
	for {
		cmd := s.ch.NextCommand(tg, read)
		at, r := s.issue(cmd, tg, ap && (cmd == CmdRead || cmd == CmdWrite))
		if first == ^uint64(0) {
			first = at
		}
		if cmd == CmdRead || cmd == CmdWrite {
			return first, r, outcome
		}
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DDR2_800().Validate(); err != nil {
		t.Fatalf("DDR2_800 invalid: %v", err)
	}
	if err := DDR_400().Validate(); err != nil {
		t.Fatalf("DDR_400 invalid: %v", err)
	}
	if err := Figure1Timing().Validate(); err != nil {
		t.Fatalf("Figure1Timing invalid: %v", err)
	}
	bad := DDR2_800()
	bad.TCL = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for tCL=0")
	}
	bad = DDR2_800()
	bad.BL = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for odd burst length")
	}
	bad = DDR2_800()
	bad.TRAS = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for tRAS < tRCD")
	}
	bad = DDR2_800()
	bad.TRFC = bad.TREFI
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for tRFC >= tREFI")
	}
	bad = DDR2_800()
	bad.TRTRS = -2
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative tRTRS")
	}
	bad = DDR2_800()
	bad.TRTW = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative tRTW")
	}
}

// TestTable1Latencies reproduces paper Table 1: with idle busses and the
// Open Page policy, a row hit costs tCL to first data, a row empty costs
// tRCD+tCL and a row conflict costs tRP+tRCD+tCL. Under Close Page
// Autoprecharge every access is a row empty costing tRCD+tCL.
func TestTable1Latencies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		timing Timing
	}{
		{"DDR2-800", noRefresh(DDR2_800())},
		{"Fig1-2-2-2", Figure1Timing()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tm := tc.timing
			wantHit := uint64(tm.TCL)
			wantEmpty := uint64(tm.TRCD + tm.TCL)
			wantConflict := uint64(tm.TRP + tm.TRCD + tm.TCL)

			// Open Page: row empty, then row hit, then row conflict.
			s := newStepper(t, tm, 1, 1)
			first, res, out := s.access(Target{Row: 0, Col: 0}, true, false)
			if out != RowEmpty || res.DataStart-first != wantEmpty {
				t.Errorf("row empty: outcome=%v latency=%d want %d", out, res.DataStart-first, wantEmpty)
			}
			first, res, out = s.access(Target{Row: 0, Col: 1}, true, false)
			if out != RowHit || res.DataStart-first != wantHit {
				t.Errorf("row hit: outcome=%v latency=%d want %d", out, res.DataStart-first, wantHit)
			}
			first, res, out = s.access(Target{Row: 1, Col: 0}, true, false)
			if out != RowConflict || res.DataStart-first != wantConflict {
				t.Errorf("row conflict: outcome=%v latency=%d want %d", out, res.DataStart-first, wantConflict)
			}

			// Close Page Autoprecharge: every access is a row empty.
			s = newStepper(t, tm, 1, 1)
			s.access(Target{Row: 0, Col: 0}, true, true)
			first, res, out = s.access(Target{Row: 0, Col: 1}, true, true)
			if out != RowEmpty || res.DataStart-first != wantEmpty {
				t.Errorf("CPA same row: outcome=%v latency=%d want %d (row empty)", out, res.DataStart-first, wantEmpty)
			}
			first, res, out = s.access(Target{Row: 1, Col: 0}, true, true)
			if out != RowEmpty || res.DataStart-first != wantEmpty {
				t.Errorf("CPA other row: outcome=%v latency=%d want %d (row empty)", out, res.DataStart-first, wantEmpty)
			}
		})
	}
}

// TestFigure1InOrder reproduces paper Figure 1(a): four reads (two row
// empties, two row conflicts) scheduled strictly in order without
// interleaving on the 2-2-2 BL4 device complete in exactly 28 cycles.
func TestFigure1InOrder(t *testing.T) {
	s := newStepper(t, Figure1Timing(), 1, 2)
	seq := []Target{
		{Bank: 0, Row: 0}, // access0: row empty
		{Bank: 1, Row: 0}, // access1: row empty
		{Bank: 0, Row: 1}, // access2: row conflict
		{Bank: 0, Row: 0}, // access3: row conflict
	}
	var end uint64
	for _, tg := range seq {
		// Strictly sequential: do not start the next access until the
		// previous access's data has drained.
		for s.cyc < end {
			s.tick()
		}
		_, res, _ := s.access(tg, true, false)
		end = res.DataEnd
	}
	if end != 28 {
		t.Fatalf("in-order completion = %d cycles, paper Figure 1(a) says 28", end)
	}
}

func TestBankConstraints(t *testing.T) {
	tm := noRefresh(DDR2_800())
	s := newStepper(t, tm, 1, 4)

	at, _ := s.issue(CmdActivate, Target{Bank: 0, Row: 5}, false)
	if at != 0 {
		t.Fatalf("first activate at %d, want 0", at)
	}
	// Activate on an open bank is illegal.
	if s.ch.CanIssue(CmdActivate, Target{Bank: 0, Row: 6}) {
		t.Fatal("activate allowed on open bank")
	}
	// Read to the wrong row is illegal.
	if s.ch.CanIssue(CmdRead, Target{Bank: 0, Row: 6}) {
		t.Fatal("read allowed to non-open row")
	}
	// tRRD paces activates to other banks in the rank.
	at, _ = s.issue(CmdActivate, Target{Bank: 1, Row: 0}, false)
	if at != uint64(tm.TRRD) {
		t.Fatalf("second activate at %d, want tRRD=%d", at, tm.TRRD)
	}
	// tRAS holds the row open: precharge of bank 0 cannot beat act+tRAS.
	at, _ = s.issue(CmdPrecharge, Target{Bank: 0}, false)
	if at != uint64(tm.TRAS) {
		t.Fatalf("precharge at %d, want tRAS=%d", at, tm.TRAS)
	}
	// tRP then gates the next activate; tRC from the first activate is
	// already satisfied by then.
	at, _ = s.issue(CmdActivate, Target{Bank: 0, Row: 7}, false)
	if want := uint64(tm.TRAS + tm.TRP); at != want {
		t.Fatalf("re-activate at %d, want tRAS+tRP=%d", at, want)
	}
}

func TestFourActivateWindow(t *testing.T) {
	tm := noRefresh(DDR2_800())
	s := newStepper(t, tm, 1, 8)
	var times []uint64
	for b := 0; b < 5; b++ {
		at, _ := s.issue(CmdActivate, Target{Bank: b, Row: 0}, false)
		times = append(times, at)
	}
	// First four pace at tRRD; the fifth must wait for the tFAW window.
	for i := 1; i < 4; i++ {
		if times[i]-times[i-1] != uint64(tm.TRRD) {
			t.Fatalf("activate %d at %d, want tRRD spacing", i, times[i])
		}
	}
	if want := times[0] + uint64(tm.TFAW); times[4] != want {
		t.Fatalf("fifth activate at %d, want tFAW-gated %d", times[4], want)
	}
}

func TestDataBusContention(t *testing.T) {
	tm := noRefresh(DDR2_800())
	t.Run("same rank back-to-back", func(t *testing.T) {
		s := newStepper(t, tm, 1, 2)
		s.issue(CmdActivate, Target{Bank: 0, Row: 0}, false)
		s.issue(CmdActivate, Target{Bank: 1, Row: 0}, false)
		_, r0 := s.issue(CmdRead, Target{Bank: 0, Row: 0}, false)
		_, r1 := s.issue(CmdRead, Target{Bank: 1, Row: 0}, false)
		if r1.DataStart != r0.DataEnd {
			t.Fatalf("same-rank reads: second data at %d, want back-to-back at %d", r1.DataStart, r0.DataEnd)
		}
	})
	t.Run("rank turnaround", func(t *testing.T) {
		s := newStepper(t, tm, 2, 1)
		s.issue(CmdActivate, Target{Rank: 0, Bank: 0, Row: 0}, false)
		s.issue(CmdActivate, Target{Rank: 1, Bank: 0, Row: 0}, false)
		_, r0 := s.issue(CmdRead, Target{Rank: 0, Bank: 0, Row: 0}, false)
		_, r1 := s.issue(CmdRead, Target{Rank: 1, Bank: 0, Row: 0}, false)
		if want := r0.DataEnd + uint64(tm.TRTRS); r1.DataStart != want {
			t.Fatalf("cross-rank reads: second data at %d, want turnaround-gapped %d", r1.DataStart, want)
		}
	})
}

func TestWriteToReadTurnaround(t *testing.T) {
	tm := noRefresh(DDR2_800())
	s := newStepper(t, tm, 1, 2)
	s.issue(CmdActivate, Target{Bank: 0, Row: 0}, false)
	s.issue(CmdActivate, Target{Bank: 1, Row: 0}, false)
	_, w := s.issue(CmdWrite, Target{Bank: 0, Row: 0}, false)
	at, _ := s.issue(CmdRead, Target{Bank: 1, Row: 0}, false)
	if want := w.DataEnd + uint64(tm.TWTR); at != want {
		t.Fatalf("read command at %d after write, want tWTR-gated %d", at, want)
	}
}

func TestWriteRecoveryGatesPrecharge(t *testing.T) {
	tm := noRefresh(DDR2_800())
	s := newStepper(t, tm, 1, 1)
	s.issue(CmdActivate, Target{Bank: 0, Row: 0}, false)
	_, w := s.issue(CmdWrite, Target{Bank: 0, Row: 0}, false)
	at, _ := s.issue(CmdPrecharge, Target{Bank: 0}, false)
	if want := w.DataEnd + uint64(tm.TWR); at != want {
		t.Fatalf("precharge at %d after write, want tWR-gated %d", at, want)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	tm := DDR2_800()
	tm.TREFI = 100 // refresh quickly so the test is short
	s := newStepper(t, tm, 1, 2)
	s.issue(CmdActivate, Target{Bank: 0, Row: 3}, false)
	if _, open := s.ch.OpenRow(0, 0); !open {
		t.Fatal("bank should be open after activate")
	}
	// Run well past the refresh deadline; the refresh engine must
	// precharge the bank and complete a refresh on its own.
	for s.cyc < uint64(tm.TREFI+tm.TRFC+tm.TRP+10) {
		s.tick()
	}
	if _, open := s.ch.OpenRow(0, 0); open {
		t.Fatal("bank still open after refresh")
	}
	if s.ch.Stats.Refreshes == 0 {
		t.Fatal("no refresh recorded")
	}
	// The next access to the old row is now a row empty.
	if out := s.ch.Classify(Target{Bank: 0, Row: 3}); out != RowEmpty {
		t.Fatalf("post-refresh outcome %v, want row empty", out)
	}
}

func TestRefreshBlocksCommands(t *testing.T) {
	tm := DDR2_800()
	tm.TREFI = 60
	s := newStepper(t, tm, 1, 1)
	// Step straight to the refresh window with everything idle.
	for s.cyc < uint64(tm.TREFI) {
		s.tick()
	}
	// Refresh fires at tREFI; activates must stay blocked until tRFC ends.
	blockedSeen := false
	for s.cyc < uint64(tm.TREFI+tm.TRFC) {
		if !s.ch.CanIssue(CmdActivate, Target{Bank: 0, Row: 0}) {
			blockedSeen = true
		}
		s.tick()
	}
	if !blockedSeen {
		t.Fatal("activate never blocked during refresh")
	}
	at, _ := s.issue(CmdActivate, Target{Bank: 0, Row: 0}, false)
	if at < uint64(tm.TREFI+tm.TRFC) {
		t.Fatalf("activate at %d, inside refresh window ending %d", at, tm.TREFI+tm.TRFC)
	}
}

func TestIssueBlockedPanics(t *testing.T) {
	ch, err := NewChannel(noRefresh(DDR2_800()), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch.Tick(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Issue of blocked command did not panic")
		}
	}()
	ch.Issue(CmdRead, Target{Bank: 0, Row: 0}, false) // bank closed: blocked
}

func TestOneCommandPerCycle(t *testing.T) {
	ch, err := NewChannel(noRefresh(DDR2_800()), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ch.Tick(0)
	if !ch.CanIssue(CmdActivate, Target{Bank: 0, Row: 0}) {
		t.Fatal("first activate blocked")
	}
	ch.Issue(CmdActivate, Target{Bank: 0, Row: 0}, false)
	if ch.CanIssue(CmdActivate, Target{Bank: 1, Row: 0}) {
		t.Fatal("second command allowed in the same cycle")
	}
	if ch.CommandSlotFree() {
		t.Fatal("command slot should be consumed")
	}
}

func TestStatsUtilization(t *testing.T) {
	tm := noRefresh(DDR2_800())
	s := newStepper(t, tm, 1, 1)
	s.issue(CmdActivate, Target{Bank: 0, Row: 0}, false)
	for i := 0; i < 4; i++ {
		s.issue(CmdRead, Target{Bank: 0, Row: 0, Col: uint32(i)}, false)
	}
	elapsed := s.cyc
	st := s.ch.Stats
	if st.Reads != 4 || st.Activates != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if got := st.DataBusCycles; got != 16 {
		t.Fatalf("data bus cycles = %d, want 4 accesses x BL/2=4", got)
	}
	if u := st.DataBusUtilization(elapsed); u <= 0 || u > 1 {
		t.Fatalf("data bus utilization out of range: %v", u)
	}
	if u := st.AddressBusUtilization(elapsed); u <= 0 || u > 1 {
		t.Fatalf("address bus utilization out of range: %v", u)
	}
}

func TestRowOutcomeRecording(t *testing.T) {
	ch, err := NewChannel(noRefresh(DDR2_800()), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch.RecordOutcome(RowHit)
	ch.RecordOutcome(RowHit)
	ch.RecordOutcome(RowConflict)
	ch.RecordOutcome(RowEmpty)
	hit, empty, conflict := ch.Stats.RowHitRate()
	if hit != 0.5 || empty != 0.25 || conflict != 0.25 {
		t.Fatalf("rates = %v/%v/%v", hit, empty, conflict)
	}
}
