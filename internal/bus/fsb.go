// Package bus models the front-side bus of the baseline machine (paper
// Table 3): 64-bit, 800 MHz DDR, connecting the L2 cache to the memory
// controller. It adapts the cache hierarchy's Backend interface onto
// memctrl.Controller, crossing from the CPU clock domain into the memory
// clock domain.
//
// The model charges a fixed flight latency each way plus bus occupancy:
// a read request occupies one address-bus slot, while transfers that carry
// a 64-byte line (write requests, read responses) occupy the data path for
// DataCycles memory cycles (4 at PC2-6400 rates, matching the DRAM data
// bus bandwidth). Controller pool rejections hold requests at the head of
// the FSB queue, propagating back-pressure up the hierarchy.
package bus

import (
	"fmt"

	"burstmem/internal/deque"
	"burstmem/internal/memctrl"
	"burstmem/internal/u64map"
)

// Config describes the FSB.
type Config struct {
	// ReqLatency and RespLatency are flight times in memory cycles.
	ReqLatency  int
	RespLatency int
	// DataCycles is the occupancy of one cache-line transfer.
	DataCycles int
	// QueueDepth bounds requests accepted from the L2 but not yet handed
	// to the controller.
	QueueDepth int
}

// DefaultConfig returns an 800 MHz DDR 64-bit FSB: 64 B / (16 B per memory
// cycle) = 4 cycles of occupancy, 2 cycles of flight each way.
func DefaultConfig() Config {
	return Config{ReqLatency: 2, RespLatency: 2, DataCycles: 4, QueueDepth: 32}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ReqLatency < 0 || c.RespLatency < 0 {
		return fmt.Errorf("bus: negative latency")
	}
	if c.DataCycles < 1 {
		return fmt.Errorf("bus: DataCycles must be >= 1, got %d", c.DataCycles)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("bus: QueueDepth must be >= 1, got %d", c.QueueDepth)
	}
	return nil
}

// Stats counts FSB activity.
type Stats struct {
	Reads         uint64
	Writes        uint64
	Rejected      uint64 // requests refused at the L2 interface (queue full)
	PoolStalled   uint64 // cycles the head request waited for controller pool space
	ReqBusyCycles uint64
}

type request struct {
	kind    memctrl.Kind
	addr    uint64
	readyAt uint64 // flight time elapsed
	done    func()
}

type response struct {
	at   uint64
	done func()
}

// FSB is the front-side bus instance. It implements cache.Backend.
type FSB struct {
	cfg  Config
	ctrl *memctrl.Controller

	reqQ  deque.Deque[request]
	respQ deque.Deque[response]

	// inflight maps a submitted read's access ID to its upstream response
	// callback; completeFn is the single controller completion callback
	// shared by every submission, so the submit path allocates nothing.
	inflight   *u64map.Map[func()]
	completeFn func(*memctrl.Access, uint64)

	memNow      uint64
	nextReqFree uint64
	poolBlocked bool // last Tick left the head request stalled on pool space

	Stats Stats
}

// New builds an FSB in front of a controller.
func New(cfg Config, ctrl *memctrl.Controller) (*FSB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &FSB{cfg: cfg, ctrl: ctrl, inflight: u64map.New[func()](cfg.QueueDepth)}
	f.completeFn = f.complete
	// QueueDepth bounds the request queue and (with the controller pool)
	// the responses in flight; prewarming both rings keeps the steady-state
	// loop allocation-free from the first cycle.
	f.reqQ.Reserve(cfg.QueueDepth)
	f.respQ.Reserve(cfg.QueueDepth)
	return f, nil
}

// complete is the controller's completion callback for reads submitted by
// this FSB. Completion times from the controller are nondecreasing within
// a run, so the response queue stays sorted.
func (f *FSB) complete(a *memctrl.Access, at uint64) {
	done, ok := f.inflight.Get(a.ID)
	if !ok {
		return
	}
	f.inflight.Delete(a.ID)
	f.respQ.PushBack(response{at: at + uint64(f.cfg.RespLatency), done: done})
}

// ReadLine implements cache.Backend: an L2 miss requesting a line from
// main memory.
func (f *FSB) ReadLine(addr uint64, done func()) bool {
	return f.enqueue(memctrl.KindRead, addr, done)
}

// WriteLine implements cache.Backend: an L2 dirty writeback.
func (f *FSB) WriteLine(addr uint64) bool {
	return f.enqueue(memctrl.KindWrite, addr, nil)
}

func (f *FSB) enqueue(kind memctrl.Kind, addr uint64, done func()) bool {
	if f.reqQ.Len() >= f.cfg.QueueDepth {
		f.Stats.Rejected++
		return false
	}
	occupancy := uint64(1)
	if kind == memctrl.KindWrite {
		occupancy = uint64(f.cfg.DataCycles) // writes carry the line
	}
	start := f.memNow
	if start < f.nextReqFree {
		start = f.nextReqFree
	}
	f.nextReqFree = start + occupancy
	f.Stats.ReqBusyCycles += occupancy
	f.reqQ.PushBack(request{
		kind:    kind,
		addr:    addr,
		readyAt: start + uint64(f.cfg.ReqLatency),
		done:    done,
	})
	if kind == memctrl.KindRead {
		f.Stats.Reads++
	} else {
		f.Stats.Writes++
	}
	return true
}

// Tick advances the FSB to the given memory cycle: deliver responses, then
// hand arrived requests to the controller (in order; a pool rejection
// blocks the head).
func (f *FSB) Tick(memNow uint64) {
	f.memNow = memNow
	f.poolBlocked = false
	for f.respQ.Len() > 0 && f.respQ.Front().at <= memNow {
		done := f.respQ.PopFront().done
		if done != nil {
			done()
		}
	}
	for f.reqQ.Len() > 0 && f.reqQ.Front().readyAt <= memNow {
		r := f.reqQ.Front()
		if !f.ctrl.CanAccept(r.kind) {
			f.Stats.PoolStalled++
			f.poolBlocked = true
			return
		}
		var onComplete func(*memctrl.Access, uint64)
		if r.done != nil {
			onComplete = f.completeFn
		}
		a, ok := f.ctrl.Submit(r.kind, r.addr, onComplete)
		if !ok {
			f.Stats.PoolStalled++
			f.poolBlocked = true
			return
		}
		if r.done != nil {
			f.inflight.Put(a.ID, r.done)
		}
		f.reqQ.PopFront()
	}
}

// NoEvent mirrors memctrl.NoEvent: no internally scheduled FSB event.
const NoEvent = ^uint64(0)

// NextEventCycle returns the earliest future memory cycle at which the FSB
// will act on its own (deliver a response or hand over a newly arrived
// request), or NoEvent. A pool-blocked head request contributes no event:
// it unblocks only on a controller completion, which the controller's own
// event hint covers. Anything already due but not yet processed this cycle
// (possible only in zero-latency configurations) forces now+1.
func (f *FSB) NextEventCycle(now uint64) uint64 {
	next := NoEvent
	if f.respQ.Len() > 0 {
		if at := f.respQ.Front().at; at <= now {
			return now + 1
		} else {
			next = at
		}
	}
	if f.reqQ.Len() > 0 {
		if at := f.reqQ.Front().readyAt; at <= now {
			if !f.poolBlocked {
				return now + 1
			}
		} else if at < next {
			next = at
		}
	}
	return next
}

// AccountSkipped folds k skipped idle memory cycles into the statistics:
// the only counter a no-op Tick would have bumped is the pool-stall count
// for a head request held back by controller pool exhaustion (pool
// occupancy cannot change during a skip, so each skipped cycle would have
// re-tried and re-counted the stall).
func (f *FSB) AccountSkipped(k uint64) {
	if f.poolBlocked {
		f.Stats.PoolStalled += k
	}
	f.memNow += k
}

// ResetStats zeroes the statistics counters.
func (f *FSB) ResetStats() { f.Stats = Stats{} }
