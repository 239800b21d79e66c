//go:build invariants

package dram

import (
	"fmt"
	"strings"
	"testing"
)

// These tests prove the -tags invariants sanitizer actually fires. Each case
// simulates a timing-bookkeeping bug by corrupting the channel's primary
// bank/bus state so CanIssue wrongly approves a command, then drives the
// public Issue path and asserts the shadow checker panics with the expected
// cycle-stamped message.

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
		if !strings.Contains(msg, "sanitizer: cycle") {
			t.Fatalf("panic %q is not cycle-stamped", msg)
		}
	}()
	f()
}

func newTestChannel(t *testing.T) *Channel {
	t.Helper()
	c, err := NewChannel(DDR2_800(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSanitizerTriggers(t *testing.T) {
	// DDR2_800: tCL=5 tRCD=5 tRP=5 tRAS=18 tWR=6 tWTR=3 tRTP=3 tRRD=3
	// tFAW=18 tCWD=4 tRTRS=2, 4 data cycles per column access.
	tests := []struct {
		name string
		want string
		run  func(t *testing.T, c *Channel)
	}{
		{
			name: "read before tRCD",
			want: "before tRCD expires",
			run: func(t *testing.T, c *Channel) {
				c.Tick(10)
				c.Issue(CmdActivate, Target{Row: 7}, false)
				c.Tick(11)
				// Bug: the bank forgot its activate-to-column constraint.
				c.ranks[0].banks[0].nextRead = 0
				c.Issue(CmdRead, Target{Row: 7}, false) // legal only from cycle 15
			},
		},
		{
			name: "column to closed bank",
			want: "no row open (activate-before-read violated)",
			run: func(t *testing.T, c *Channel) {
				c.Tick(10)
				// Bug: the bank believes row 3 is open without any activate.
				c.ranks[0].banks[0].open = true
				c.ranks[0].banks[0].row = 3
				c.Issue(CmdRead, Target{Row: 3}, false)
			},
		},
		{
			name: "precharge before tWR",
			want: "PRE to rank 0 bank 0 violates tRAS/tWR/tRTP",
			run: func(t *testing.T, c *Channel) {
				c.Tick(10)
				c.Issue(CmdActivate, Target{Row: 7}, false)
				c.Tick(15)
				c.Issue(CmdWrite, Target{Row: 7}, false) // data ends 15+4+4=23, +tWR=29
				c.Tick(16)
				// Bug: write recovery (and tRAS) constraint lost.
				c.ranks[0].banks[0].nextPrecharge = 0
				c.Issue(CmdPrecharge, Target{}, false)
			},
		},
		{
			name: "activate to open bank",
			want: "row 7 already open",
			run: func(t *testing.T, c *Channel) {
				c.Tick(10)
				c.Issue(CmdActivate, Target{Row: 7}, false)
				c.Tick(13) // past tRRD so only the corruption lets this through
				// Bug: the bank believes it is closed and activatable.
				c.ranks[0].banks[0].open = false
				c.ranks[0].banks[0].nextActivate = 0
				c.Issue(CmdActivate, Target{Row: 9}, false)
			},
		},
		{
			name: "data bus overlap",
			want: "overlaps the data bus",
			run: func(t *testing.T, c *Channel) {
				c.Tick(10)
				c.Issue(CmdActivate, Target{Bank: 0, Row: 7}, false)
				c.Tick(13)
				c.Issue(CmdActivate, Target{Bank: 1, Row: 7}, false)
				c.Tick(17)
				c.Issue(CmdRead, Target{Bank: 0, Row: 7}, false) // bus busy [22,26)
				c.Tick(18)
				// Bug: the bus bookkeeping lost the in-flight transfer.
				c.busUsed = false
				c.Issue(CmdRead, Target{Bank: 1, Row: 7}, false) // data would start at 23
			},
		},
		{
			name: "write-to-read turnaround",
			want: "violates tWTR",
			run: func(t *testing.T, c *Channel) {
				c.Tick(10)
				c.Issue(CmdActivate, Target{Bank: 0, Row: 7}, false)
				c.Tick(13)
				c.Issue(CmdActivate, Target{Bank: 1, Row: 7}, false)
				c.Tick(18)
				c.Issue(CmdWrite, Target{Bank: 0, Row: 7}, false) // data ends 18+4+4=26
				c.Tick(25)
				// Bug: rank turnaround and bus state both lost; a read this
				// early violates tWTR (legal only from 26+3=29).
				c.ranks[0].writeDataEnd = 0
				c.busUsed = false
				c.Issue(CmdRead, Target{Bank: 1, Row: 7}, false)
			},
		},
		{
			name: "refresh with open bank",
			want: "REF to rank 0 with bank 0 still open",
			run: func(t *testing.T, c *Channel) {
				c.Tick(10)
				c.Issue(CmdActivate, Target{Row: 7}, false)
				// Bug: the refresh engine thinks every bank is precharged.
				c.ranks[0].banks[0].open = false
				c.ranks[0].nextRefresh = 11
				c.refreshWake = 11 // keep the wake cache consistent with the poke
				c.Tick(11)         // engine starts the refresh immediately
			},
		},
		{
			name: "command during refresh",
			want: "during refresh (rank busy until cycle",
			run: func(t *testing.T, c *Channel) {
				c.ranks[0].nextRefresh = 5
				c.refreshWake = 5 // keep the wake cache consistent with the poke
				c.Tick(5)         // refresh starts; rank busy until 5+51=56
				c.Tick(6)
				// Bug: the rank forgot it is mid-refresh.
				c.ranks[0].refreshUntil = 0
				c.Issue(CmdActivate, Target{Row: 7}, false)
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestChannel(t)
			mustPanic(t, tc.want, func() { tc.run(t, c) })
		})
	}
}
