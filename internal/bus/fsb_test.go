package bus

import (
	"testing"

	"burstmem/internal/addrmap"
	"burstmem/internal/core"
	"burstmem/internal/dram"
	"burstmem/internal/memctrl"
)

func testController(t *testing.T) *memctrl.Controller {
	t.Helper()
	cfg := memctrl.DefaultConfig()
	cfg.Timing = dram.DDR2_800()
	cfg.Timing.TREFI = 0
	cfg.Geometry = addrmap.Geometry{
		Channels: 1, Ranks: 1, Banks: 4, Rows: 64, ColumnLines: 32, LineBytes: 64,
	}
	cfg.PoolSize = 8
	cfg.MaxWrites = 4
	ctrl, err := memctrl.New(cfg, core.Burst())
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func newFSB(t *testing.T, cfg Config, ctrl *memctrl.Controller) *FSB {
	t.Helper()
	f, err := New(cfg, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.DataCycles = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero data cycles accepted")
	}
	bad = DefaultConfig()
	bad.QueueDepth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero queue depth accepted")
	}
}

// TestReadRoundTrip: a read traverses request flight, DRAM service and
// response flight, and the latency includes both flight times.
func TestReadRoundTrip(t *testing.T) {
	ctrl := testController(t)
	cfg := DefaultConfig()
	f := newFSB(t, cfg, ctrl)
	doneAt := uint64(0)
	var cyc uint64
	ctrl.Tick(0)
	f.Tick(0)
	if !f.ReadLine(0, func() { doneAt = cyc }) {
		t.Fatal("read refused")
	}
	for cyc = 1; cyc < 200 && doneAt == 0; cyc++ {
		ctrl.Tick(cyc)
		f.Tick(cyc)
	}
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	// Idle round trip: req flight + row empty service + resp flight.
	tm := ctrl.Config().Timing
	minLatency := uint64(cfg.ReqLatency + tm.TRCD + tm.TCL + tm.DataCycles() + cfg.RespLatency)
	if doneAt < minLatency {
		t.Fatalf("completed at %d, faster than physical minimum %d", doneAt, minLatency)
	}
}

// TestWriteFireAndForget: writebacks need no callback and drain.
func TestWriteFireAndForget(t *testing.T) {
	ctrl := testController(t)
	f := newFSB(t, DefaultConfig(), ctrl)
	ctrl.Tick(0)
	f.Tick(0)
	if !f.WriteLine(64) {
		t.Fatal("write refused")
	}
	for cyc := uint64(1); cyc < 300; cyc++ {
		ctrl.Tick(cyc)
		f.Tick(cyc)
		if ctrl.Drained() && f.reqQ.Len() == 0 && f.respQ.Len() == 0 {
			return
		}
	}
	t.Fatal("write never drained")
}

// TestQueueDepthBound: the FSB refuses past QueueDepth.
func TestQueueDepthBound(t *testing.T) {
	ctrl := testController(t)
	cfg := DefaultConfig()
	cfg.QueueDepth = 2
	f := newFSB(t, cfg, ctrl)
	if !f.ReadLine(0, func() {}) || !f.ReadLine(64, func() {}) {
		t.Fatal("reads refused early")
	}
	if f.ReadLine(128, func() {}) {
		t.Fatal("third read accepted beyond depth 2")
	}
	if f.Stats.Rejected != 1 {
		t.Fatalf("rejected = %d", f.Stats.Rejected)
	}
}

// TestPoolBackpressure: when the controller write pool is full, writes
// queue in the FSB and drain only as the pool frees.
func TestPoolBackpressure(t *testing.T) {
	ctrl := testController(t) // MaxWrites 4
	f := newFSB(t, DefaultConfig(), ctrl)
	ctrl.Tick(0)
	f.Tick(0)
	// All writes hit one bank on different rows: each drains through a
	// full precharge/activate/write sequence, keeping the pool full.
	for i := 0; i < 8; i++ {
		if !f.WriteLine(uint64(i) << 13) {
			t.Fatalf("write %d refused by FSB", i)
		}
	}
	// Writes arrive every 4 cycles (request occupancy) but each needs a
	// ~23-cycle conflict service in the single bank, so the pool fills
	// and the FSB head stalls.
	for cyc := uint64(1); cyc < 60; cyc++ {
		ctrl.Tick(cyc)
		f.Tick(cyc)
		if ctrl.OutstandingWrites() > 4 {
			t.Fatalf("pool overfilled: %d writes", ctrl.OutstandingWrites())
		}
	}
	if f.Stats.PoolStalled == 0 {
		t.Fatal("pool stall never recorded")
	}
	for cyc := uint64(60); cyc < 2000; cyc++ {
		ctrl.Tick(cyc)
		f.Tick(cyc)
		if ctrl.Drained() && f.reqQ.Len() == 0 && f.respQ.Len() == 0 {
			return
		}
	}
	t.Fatal("writes never fully drained")
}

// TestRequestBusOccupancy: writes occupy the request path longer than
// reads, spacing out readyAt times.
func TestRequestBusOccupancy(t *testing.T) {
	ctrl := testController(t)
	cfg := DefaultConfig()
	f := newFSB(t, cfg, ctrl)
	ctrl.Tick(0)
	f.Tick(0)
	f.WriteLine(0)
	f.WriteLine(4096)
	if got := f.Stats.ReqBusyCycles; got != uint64(2*cfg.DataCycles) {
		t.Fatalf("request bus busy %d, want %d", got, 2*cfg.DataCycles)
	}
	f2 := newFSB(t, cfg, ctrl)
	f2.ReadLine(0, func() {})
	f2.ReadLine(64, func() {})
	if got := f2.Stats.ReqBusyCycles; got != 2 {
		t.Fatalf("read request occupancy %d, want 2", got)
	}
}
