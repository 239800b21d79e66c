// Package dram implements a cycle-accurate SDRAM device timing model: banks,
// ranks and channels with the full set of DDR2 timing constraints, command
// legality checks, data-bus contention (including DDR2 rank-to-rank
// turnaround), auto-refresh, and bus-utilization accounting.
//
// The model is command-driven: a memory controller asks whether a command
// is legal this cycle (CanIssue, or the issue bounds EarliestReady and
// ColumnBusReady that CanIssue is derived from) and then Issue-s it. All
// times are in memory (command clock) cycles; for DDR2-800 one cycle is
// 2.5 ns and the data bus moves two beats per cycle.
package dram

import "fmt"

// Timing holds SDRAM timing constraints, all in memory clock cycles.
type Timing struct {
	TCL   int // CAS (read) latency: column read command to first data beat
	TRCD  int // row activate to column command
	TRP   int // precharge to activate
	TRAS  int // activate to precharge (row must stay open this long)
	TRC   int // activate to activate, same bank (usually TRAS+TRP)
	TWR   int // write recovery: last write data beat to precharge
	TWTR  int // write-to-read turnaround, same rank (from last write data beat)
	TRTP  int // read to precharge
	TRRD  int // activate to activate, different banks of one rank
	TFAW  int // four-activate window per rank (0 disables)
	TCWD  int // write latency: column write command to first data beat
	TRTRS int // rank-to-rank data bus turnaround (DDR2)
	TRTW  int // read-to-write data bus turnaround (any rank)
	TREFI int // average refresh interval per rank (0 disables refresh)
	TRFC  int // refresh cycle time
	BL    int // burst length in beats; data occupies BL/2 cycles (DDR)
}

// DataCycles returns how many command-clock cycles one column access
// occupies on the data bus.
func (t Timing) DataCycles() int { return t.BL / 2 }

// Validate reports an error for non-physical parameter combinations.
func (t Timing) Validate() error {
	switch {
	case t.TCL < 1 || t.TRCD < 1 || t.TRP < 1:
		return fmt.Errorf("dram: tCL/tRCD/tRP must be >= 1 (got %d-%d-%d)", t.TCL, t.TRCD, t.TRP)
	case t.BL < 2 || t.BL%2 != 0:
		return fmt.Errorf("dram: burst length must be a positive even beat count, got %d", t.BL)
	case t.TRAS < t.TRCD:
		return fmt.Errorf("dram: tRAS (%d) must cover tRCD (%d)", t.TRAS, t.TRCD)
	case t.TRC < t.TRAS:
		return fmt.Errorf("dram: tRC (%d) must cover tRAS (%d)", t.TRC, t.TRAS)
	case t.TCWD < 0 || t.TWR < 0 || t.TWTR < 0 || t.TRTP < 0 || t.TRRD < 0 || t.TFAW < 0:
		return fmt.Errorf("dram: negative timing parameter")
	case t.TRTRS < 0 || t.TRTW < 0:
		// A negative gap would start a transfer before the data bus frees.
		return fmt.Errorf("dram: negative data bus turnaround (tRTRS %d, tRTW %d)", t.TRTRS, t.TRTW)
	case t.TREFI < 0 || t.TRFC < 0:
		return fmt.Errorf("dram: negative refresh parameter")
	case t.TREFI > 0 && t.TRFC >= t.TREFI:
		return fmt.Errorf("dram: tRFC (%d) must be < tREFI (%d)", t.TRFC, t.TREFI)
	}
	return nil
}

// DDR2_800 returns the paper's simulated device: DDR2 PC2-6400 with 5-5-5
// (tCL-tRCD-tRP) timing at 400 MHz command clock (2.5 ns), burst length 8.
// Secondary constraints follow Micron 512Mb DDR2-800 datasheet values
// rounded to cycles.
func DDR2_800() Timing {
	return Timing{
		TCL:   5,
		TRCD:  5,
		TRP:   5,
		TRAS:  18, // 45 ns
		TRC:   23, // 57.5 ns
		TWR:   6,  // 15 ns
		TWTR:  3,  // 7.5 ns
		TRTP:  3,  // 7.5 ns
		TRRD:  3,  // 7.5 ns
		TFAW:  18, // 45 ns
		TCWD:  4,  // tCL-1 for DDR2
		TRTRS: 2,  // ODT settling makes DDR2 rank switches costly
		TRTW:  2,
		TREFI: 3120, // 7.8 us
		TRFC:  51,   // 127.5 ns
		BL:    8,
	}
}

// DDR_400 returns a DDR PC-2100 style device with 2-2-2 timing (the older
// generation the paper's conclusion compares against: same nanosecond
// latencies, one third the bus frequency).
func DDR_400() Timing {
	return Timing{
		TCL:   2,
		TRCD:  2,
		TRP:   2,
		TRAS:  6,
		TRC:   8,
		TWR:   2,
		TWTR:  1,
		TRTP:  1,
		TRRD:  1,
		TFAW:  0,
		TCWD:  1,
		TRTRS: 1,
		TRTW:  1,
		TREFI: 1040,
		TRFC:  17,
		BL:    8,
	}
}

// DDR3_1600 returns a DDR3-1600-class device (8-8-8 at an 800 MHz command
// clock, 1.25 ns cycles). The paper's conclusion predicts that as timing
// parameters grow in cycles while bandwidth scales, access reordering's
// advantage widens; this preset extrapolates one more generation for that
// experiment (cmd/experiments -exp scaling).
func DDR3_1600() Timing {
	return Timing{
		TCL:   8,
		TRCD:  8,
		TRP:   8,
		TRAS:  28, // 35 ns
		TRC:   36,
		TWR:   12, // 15 ns
		TWTR:  6,  // 7.5 ns
		TRTP:  6,
		TRRD:  5,  // 6.25 ns
		TFAW:  24, // 30 ns
		TCWD:  6,
		TRTRS: 2,
		TRTW:  2,
		TREFI: 6240, // 7.8 us
		TRFC:  128,  // 160 ns
		BL:    8,
	}
}

// Figure1Timing returns the pedagogical device of the paper's Figure 1:
// 2-2-2 timing with burst length 4 (two data cycles), no secondary
// constraints and no refresh, so hand-computed schedules match exactly.
func Figure1Timing() Timing {
	return Timing{
		TCL:   2,
		TRCD:  2,
		TRP:   2,
		TRAS:  4,
		TRC:   6,
		TWR:   1,
		TWTR:  1,
		TRTP:  1,
		TRRD:  1,
		TFAW:  0,
		TCWD:  1,
		TRTRS: 1,
		TRTW:  1,
		TREFI: 0,
		TRFC:  0,
		BL:    4,
	}
}
