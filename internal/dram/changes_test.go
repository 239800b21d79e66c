package dram

import (
	"fmt"
	"strings"
	"testing"
)

// changeGeometries are the channels the numbering and change-report tests
// run on: 2 × 4, and 1 × 64, whose rank mask is the whole word.
var changeGeometries = []struct{ ranks, banks int }{{2, 4}, {1, 64}}

// TestNewBankMap pins the flat numbering f = rank·banks + bank, its rank
// masks, and the geometries it rejects (so NewChannel rejects them too).
func TestNewBankMap(t *testing.T) {
	for _, g := range changeGeometries {
		m, err := NewBankMap(g.ranks, g.banks)
		if err != nil {
			t.Fatalf("%d × %d: %v", g.ranks, g.banks, err)
		}
		var all uint64
		for r := 0; r < g.ranks; r++ {
			for b := 0; b < g.banks; b++ {
				f := m.Index(r, b)
				if f != r*g.banks+b {
					t.Fatalf("%d × %d: Index(%d, %d) = %d, want %d", g.ranks, g.banks, r, b, f, r*g.banks+b)
				}
				if rr, bb := m.Split(f); rr != r || bb != b {
					t.Fatalf("%d × %d: Split(%d) = %d, %d, want %d, %d", g.ranks, g.banks, f, rr, bb, r, b)
				}
			}
			if all&m.RankMask(r) != 0 {
				t.Fatalf("%d × %d: RankMask(%d) = %#x overlaps the lower ranks' %#x", g.ranks, g.banks, r, m.RankMask(r), all)
			}
			all |= m.RankMask(r)
		}
		if want := ^uint64(0) >> uint(64-g.ranks*g.banks); all != want {
			t.Fatalf("%d × %d: the rank masks cover %#x, want %#x", g.ranks, g.banks, all, want)
		}
	}
	for _, bad := range []struct {
		ranks, banks int
		want         string
	}{
		{1, 3, "3 banks per rank is not a power of two"},
		{2, 64, "2 ranks × 64 banks = 128 banks per channel exceeds the 64 supported"},
	} {
		if _, err := NewBankMap(bad.ranks, bad.banks); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("NewBankMap(%d, %d): error %v, want one containing %q", bad.ranks, bad.banks, err, bad.want)
		}
		if _, err := NewChannel(DDR2_800(), bad.ranks, bad.banks); err == nil {
			t.Errorf("NewChannel accepted %d ranks × %d banks", bad.ranks, bad.banks)
		}
	}
}

// TestTakeChangedMarks pins exactly what each command reports through
// TakeChanged: an activate, a write and a refresh start mark every bank of
// their rank; a read, a precharge (issued, or by the refresh engine) and an
// auto-precharge mark their bank; a read or a write sets the bus flag; a
// cycle with no command marks nothing. A report that marks too much changes
// no simulation output, only its speed, so only an exact test sees it.
func TestTakeChangedMarks(t *testing.T) {
	for _, g := range changeGeometries {
		t.Run(fmt.Sprintf("%dx%d", g.ranks, g.banks), func(t *testing.T) {
			ch, err := NewChannel(DDR2_800(), g.ranks, g.banks)
			if err != nil {
				t.Fatal(err)
			}
			m := ch.BankMap()
			// The last bank of the last rank: the top bit of the word on
			// the 1 × 64 channel.
			r := g.ranks - 1
			tg := Target{Rank: r, Bank: g.banks - 1, Row: 3}
			bank, rank := uint64(1)<<uint(m.Index(r, tg.Bank)), m.RankMask(r)

			now := uint64(0)
			ch.Tick(now)
			expect := func(what string, banks uint64, bus bool) {
				t.Helper()
				if gotBanks, gotBus := ch.TakeChanged(); gotBanks != banks || gotBus != bus {
					t.Fatalf("cycle %d, %s: TakeChanged = %#x, %v; want %#x, %v", now, what, gotBanks, gotBus, banks, bus)
				}
			}
			expect("fresh channel", 0, false)
			// issue steps to the first cycle cmd can issue, checking that no
			// cycle on the way marks anything, then issues it and checks
			// its marks.
			issue := func(cmd Cmd, autoPrecharge bool, banks uint64, bus bool) {
				t.Helper()
				for !ch.CanIssue(cmd, tg) {
					if now++; now > 1000 {
						t.Fatalf("%v never became legal", cmd)
					}
					ch.Tick(now)
					expect("a cycle with no command", 0, false)
				}
				ch.Issue(cmd, tg, autoPrecharge)
				expect(fmt.Sprintf("%v, auto-precharge %v", cmd, autoPrecharge), banks, bus)
			}
			issue(CmdActivate, false, rank, false)
			issue(CmdRead, false, bank, true)
			issue(CmdWrite, false, rank, true)
			issue(CmdPrecharge, false, bank, false)
			issue(CmdActivate, false, rank, false)
			issue(CmdRead, true, bank, true)
			issue(CmdActivate, false, rank, false)
			issue(CmdWrite, true, rank, true)
			// Leave the row open: the refresh engine must precharge it.
			issue(CmdActivate, false, rank, false)

			// Run until every rank has refreshed once. Each cycle the
			// refresh engine issues at most one command.
			prechargedByRefresh := false
			for ch.Stats.Refreshes < uint64(g.ranks) {
				if now++; now > 3*uint64(ch.T.TREFI) {
					t.Fatalf("%d of %d ranks refreshed by cycle %d", ch.Stats.Refreshes, g.ranks, now)
				}
				pre, ref := ch.Stats.Precharges, ch.Stats.Refreshes
				ch.Tick(now)
				switch {
				case ch.Stats.Precharges > pre:
					prechargedByRefresh = true
					expect("the refresh engine's precharge", bank, false)
				case ch.Stats.Refreshes > ref:
					started := -1
					for i := range ch.ranks {
						if ch.ranks[i].refreshUntil == now+uint64(ch.T.TRFC) {
							started = i
						}
					}
					expect(fmt.Sprintf("rank %d's refresh start", started), m.RankMask(started), false)
				default:
					expect("a cycle with no command", 0, false)
				}
			}
			if !prechargedByRefresh {
				t.Fatal("the refresh engine never precharged the open bank")
			}
		})
	}
}

// TestDueBanksFollowsRefreshDue checks DueBanks against RefreshDue on every
// cycle across each rank's first refresh window. A row opened three cycles
// before the rank's deadline holds its refresh off until tRAS allows the
// precharge, so each window spans several cycles.
func TestDueBanksFollowsRefreshDue(t *testing.T) {
	for _, g := range changeGeometries {
		t.Run(fmt.Sprintf("%dx%d", g.ranks, g.banks), func(t *testing.T) {
			ch, err := NewChannel(DDR2_800(), g.ranks, g.banks)
			if err != nil {
				t.Fatal(err)
			}
			m := ch.BankMap()
			dueCycles := make([]int, g.ranks)
			for now := uint64(0); now < 2*uint64(ch.T.TREFI); now++ {
				ch.Tick(now)
				var want uint64
				for r := 0; r < g.ranks; r++ {
					if ch.RefreshDue(r) {
						want |= m.RankMask(r)
						dueCycles[r]++
					}
				}
				if got := ch.DueBanks(); got != want {
					t.Fatalf("cycle %d: DueBanks = %#x, but the ranks with RefreshDue hold %#x", now, got, want)
				}
				for r := 0; r < g.ranks; r++ {
					tg := Target{Rank: r, Bank: g.banks - 1, Row: 1}
					if now+3 == ch.ranks[r].nextRefresh && ch.CanIssue(CmdActivate, tg) {
						ch.Issue(CmdActivate, tg, false)
					}
				}
			}
			for r, n := range dueCycles {
				if n < 2 {
					t.Errorf("rank %d's refresh was due on %d cycles, want a window of several", r, n)
				}
			}
		})
	}
}
