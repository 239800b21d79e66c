package memctrl

import (
	"fmt"

	"burstmem/internal/addrmap"
	"burstmem/internal/dram"
	"burstmem/internal/stats"
	"burstmem/internal/trace"
	"burstmem/internal/u64map"
)

// RowPolicy is the static controller page policy (paper Section 2).
type RowPolicy int

// Row policies: OpenPage leaves rows open after access; ClosePageAuto
// precharges automatically after every column access.
const (
	OpenPage RowPolicy = iota
	ClosePageAuto
)

// Config describes the memory controller (paper Table 3 defaults via
// DefaultConfig).
type Config struct {
	Timing    dram.Timing
	Geometry  addrmap.Geometry
	Mapping   string // addrmap mapping name; "" = page interleaving
	RowPolicy RowPolicy

	// PoolSize is the shared access pool capacity; MaxWrites caps the
	// write share of the pool (the write queue size).
	PoolSize  int
	MaxWrites int
}

// ForwardLatency is the controller-internal latency, in memory cycles, of
// returning write-queue data to a forwarded read.
const ForwardLatency = 1

// DefaultConfig returns the paper's Table 3 baseline: DDR2 PC2-6400 5-5-5,
// 4 GB in 2 channels x 4 ranks x 4 banks, open page, page interleaving,
// 256-entry pool with at most 64 writes.
func DefaultConfig() Config {
	return Config{
		Timing:    dram.DDR2_800(),
		Geometry:  addrmap.DefaultGeometry(),
		Mapping:   "page-interleave",
		RowPolicy: OpenPage,
		PoolSize:  256,
		MaxWrites: 64,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.PoolSize < 1 {
		return fmt.Errorf("memctrl: pool size must be positive, got %d", c.PoolSize)
	}
	if c.MaxWrites < 1 || c.MaxWrites > c.PoolSize {
		return fmt.Errorf("memctrl: max writes %d must be in [1, pool size %d]", c.MaxWrites, c.PoolSize)
	}
	// The engine, the bank queues and every mechanism hold a set of the
	// channel's banks in one uint64 (dram.BankMap).
	if _, err := dram.NewBankMap(c.Geometry.Ranks, c.Geometry.Banks); err != nil {
		return err
	}
	if _, err := addrmap.ByName(c.Mapping, c.Geometry); err != nil {
		return err
	}
	return nil
}

// latencyHistSize bounds the latency histograms (cycles; higher latencies
// clamp into the last bucket).
const latencyHistSize = 2048

// CtrlStats aggregates controller-level statistics across channels.
type CtrlStats struct {
	ReadLatency  stats.Mean // arrival -> data returned, memory cycles
	WriteLatency stats.Mean // arrival -> data drained, memory cycles

	// ReadLatencyHist/WriteLatencyHist bucket latencies at cycle
	// granularity for percentile reporting (tail latency is where
	// scheduling fairness shows up).
	ReadLatencyHist  *stats.Histogram
	WriteLatencyHist *stats.Histogram

	OutstandingReads  *stats.Histogram // sampled every memory cycle
	OutstandingWrites *stats.Histogram

	Cycles           uint64
	WriteSatCycles   uint64 // cycles with the write queue at capacity
	PoolFullCycles   uint64 // cycles with the whole pool at capacity
	ForwardedReads   uint64
	AcceptedReads    uint64
	AcceptedWrites   uint64
	RejectedRequests uint64 // Submit calls refused for lack of pool space
	BytesTransferred uint64
}

// WriteSaturationRate returns the fraction of time the write queue was full
// (paper Section 5.1).
func (s *CtrlStats) WriteSaturationRate() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.WriteSatCycles) / float64(s.Cycles)
}

// completion is a pending access-finished event.
type completion struct {
	at     uint64
	access *Access
}

// completionHeap is a hand-rolled binary min-heap ordered by completion
// time. It sifts exactly like container/heap (so event order among equal
// times is unchanged) without the interface boxing that allocated on every
// Push/Pop.
type completionHeap struct{ s []completion }

func (h *completionHeap) peek() *completion { return &h.s[0] }
func (h *completionHeap) empty() bool       { return len(h.s) == 0 }

func (h *completionHeap) push(v completion) {
	// The heap's capacity is bounded by the accesses in flight.
	h.s = append(h.s, v)
	j := len(h.s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h.s[i].at <= h.s[j].at {
			break
		}
		h.s[i], h.s[j] = h.s[j], h.s[i]
		j = i
	}
}

func (h *completionHeap) pop() completion {
	n := len(h.s) - 1
	h.s[0], h.s[n] = h.s[n], h.s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.s[j2].at < h.s[j].at {
			j = j2
		}
		if h.s[j].at >= h.s[i].at {
			break
		}
		h.s[i], h.s[j] = h.s[j], h.s[i]
		i = j
	}
	v := h.s[n]
	h.s[n] = completion{}
	h.s = h.s[:n]
	return v
}

// Controller is the full memory controller: one Mechanism instance per
// channel sharing a global access pool, plus statistics.
type Controller struct {
	cfg    Config
	mapper addrmap.Mapper

	channels []*dram.Channel
	hosts    []*Host
	mechs    []Mechanism

	poolReads  int
	poolWrites int

	// pendingWriteLines maps line address -> newest pending write, per
	// channel, for RAW forwarding.
	pendingWriteLines []*u64map.Map[*Access]

	completions completionHeap
	nextID      uint64
	now         uint64
	lastSubmit  uint64 // most recent successful Submit cycle, stored +1 (0 = never)

	// tracer observes the access lifecycle when attached (nil = tracing
	// off; every emit is then an inlined nil check).
	tracer *trace.Tracer

	// freeAccess heads the free list of recycled Access objects (linked
	// through next). Fields reset at acquire time, not release time, so a
	// pointer retained past completion keeps its final values until the
	// object is reused by a later Submit.
	freeAccess *Access

	Stats CtrlStats
}

// acquire pops a recycled access (resetting it) or allocates a fresh one.
func (c *Controller) acquire() *Access {
	a := c.freeAccess
	if a == nil {
		// A pool refill allocates only until the access pool warms up.
		a = &Access{}
	} else {
		c.freeAccess = a.next
		*a = Access{}
	}
	a.san.acquired(a, c.now)
	return a
}

// release pushes a completed access onto the free list. Callers must not
// hand out the pointer afterwards.
func (c *Controller) release(a *Access) {
	a.san.released(a, c.now)
	a.next = c.freeAccess
	c.freeAccess = a
}

// New builds a controller whose channels each run a mechanism built by the
// factory.
func New(cfg Config, factory Factory) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mapper, err := addrmap.ByName(cfg.Mapping, cfg.Geometry)
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, mapper: mapper}
	c.Stats.OutstandingReads = stats.NewHistogram(cfg.PoolSize + 1)
	c.Stats.OutstandingWrites = stats.NewHistogram(cfg.MaxWrites + 1)
	c.Stats.ReadLatencyHist = stats.NewHistogram(latencyHistSize)
	c.Stats.WriteLatencyHist = stats.NewHistogram(latencyHistSize)
	for i := 0; i < cfg.Geometry.Channels; i++ {
		ch, err := dram.NewChannel(cfg.Timing, cfg.Geometry.Ranks, cfg.Geometry.Banks)
		if err != nil {
			return nil, err
		}
		host := &Host{ctrl: c, chIdx: i, ch: ch}
		c.channels = append(c.channels, ch)
		c.hosts = append(c.hosts, host)
		c.mechs = append(c.mechs, factory(host))
		c.pendingWriteLines = append(c.pendingWriteLines, u64map.New[*Access](cfg.MaxWrites))
	}
	// Pre-link the whole access free list: pool admission caps live
	// accesses at PoolSize, so acquire never needs more and the hot loop
	// never pays the pool's warm-up allocations.
	backing := make([]Access, cfg.PoolSize)
	for i := range backing {
		backing[i].next = c.freeAccess
		c.freeAccess = &backing[i]
	}
	c.completions.s = make([]completion, 0, cfg.PoolSize)
	return c, nil
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetTracer attaches (or, with nil, detaches) an observability tracer to
// the controller and every channel. Tracing only observes — simulation
// results are bit-identical with or without it.
func (c *Controller) SetTracer(tr *trace.Tracer) {
	c.tracer = tr
	for i, ch := range c.channels {
		ch.SetTracer(tr, i)
	}
}

// Tracer returns the attached tracer (nil when tracing is off). The nil
// tracer is safe to emit on, so call sites never need to check.
func (c *Controller) Tracer() *trace.Tracer { return c.tracer }

// Mapper returns the address mapper in use.
func (c *Controller) Mapper() addrmap.Mapper { return c.mapper }

// Channel returns channel i's device model (for inspecting bus statistics).
func (c *Controller) Channel(i int) *dram.Channel { return c.channels[i] }

// Channels returns the channel count.
func (c *Controller) Channels() int { return len(c.channels) }

// MechanismName returns the name reported by the channel mechanisms.
func (c *Controller) MechanismName() string { return c.mechs[0].Name() }

// Mechanism returns channel i's mechanism instance (for inspecting
// mechanism-specific statistics).
func (c *Controller) Mechanism(i int) Mechanism { return c.mechs[i] }

// CanAccept reports whether the pool can admit an access of the given kind.
func (c *Controller) CanAccept(kind Kind) bool {
	if c.poolReads+c.poolWrites >= c.cfg.PoolSize {
		return false
	}
	if kind == KindWrite && c.poolWrites >= c.cfg.MaxWrites {
		return false
	}
	return true
}

// OutstandingReads returns reads currently in the pool.
func (c *Controller) OutstandingReads() int { return c.poolReads }

// OutstandingWrites returns writes currently in the pool.
func (c *Controller) OutstandingWrites() int { return c.poolWrites }

// Submit admits an access. It returns the created access, or nil with
// ok=false when the pool is full (back-pressure: the caller must retry).
// Reads that hit a pending write are forwarded and complete after
// ForwardLatency cycles without touching the device.
func (c *Controller) Submit(kind Kind, addr uint64, onComplete func(*Access, uint64)) (*Access, bool) {
	c.lastSubmit = c.now + 1
	loc := c.mapper.Decode(addr)
	chIdx := int(loc.Channel)
	mech := c.mechs[chIdx]
	line := addr &^ uint64(c.cfg.Geometry.LineBytes-1)

	if kind == KindRead && mech.ForwardsWrites() {
		if _, hit := c.pendingWriteLines[chIdx].Get(line); hit {
			// Paper Fig. 4: forward the latest write's data; the read
			// completes immediately and never enters the queues.
			a := c.acquire()
			a.ID = c.nextID
			c.nextID++
			a.Kind = kind
			a.Addr = addr
			a.Loc = loc
			a.Arrival = c.now
			a.OnComplete = onComplete
			a.Forwarded = true
			a.DataEnd = c.now + ForwardLatency
			c.Stats.ForwardedReads++
			c.Stats.AcceptedReads++
			c.completions.push(completion{at: a.DataEnd, access: a})
			c.tracer.Enqueue(c.now, chIdx, int(loc.Rank), int(loc.Bank), loc.Row, a.ID, false)
			c.tracer.Forward(c.now, chIdx, a.ID)
			return a, true
		}
	}

	if !c.CanAccept(kind) {
		c.Stats.RejectedRequests++
		return nil, false
	}
	a := c.acquire()
	a.ID = c.nextID
	c.nextID++
	a.Kind = kind
	a.Addr = addr
	a.Loc = loc
	a.Arrival = c.now
	a.OnComplete = onComplete
	if kind == KindRead {
		c.poolReads++
		c.hosts[chIdx].reads++
		c.Stats.AcceptedReads++
	} else {
		c.poolWrites++
		c.hosts[chIdx].writes++
		c.Stats.AcceptedWrites++
		c.pendingWriteLines[chIdx].Put(line, a)
	}
	c.tracer.Enqueue(c.now, chIdx, int(loc.Rank), int(loc.Bank), loc.Row, a.ID, kind == KindWrite)
	mech.Enqueue(a, c.now)
	return a, true
}

// Tick advances the controller one memory cycle: completions fire, refresh
// engines run, each channel's mechanism schedules, and occupancy statistics
// sample.
func (c *Controller) Tick(now uint64) {
	c.now = now
	for !c.completions.empty() && c.completions.peek().at <= now {
		done := c.completions.pop()
		c.finish(done.access, done.at)
		c.release(done.access)
	}
	for i, ch := range c.channels {
		ch.Tick(now)
		c.mechs[i].Tick(now)
	}
	c.Stats.Cycles++
	c.Stats.OutstandingReads.Add(c.poolReads)
	c.Stats.OutstandingWrites.Add(c.poolWrites)
	if c.poolWrites >= c.cfg.MaxWrites {
		c.Stats.WriteSatCycles++
	}
	if c.poolReads+c.poolWrites >= c.cfg.PoolSize {
		c.Stats.PoolFullCycles++
	}
	c.tracer.SampleOccupancy(now, c.poolReads, c.poolWrites, c.poolWrites >= c.cfg.MaxWrites)
}

// NoEvent is the "no scheduled event" sentinel (== dram.NoEvent).
const NoEvent = ^uint64(0)

// EventHinter is the optional Mechanism extension enabling idle-cycle
// skipping. NextEventCycle returns the earliest future cycle at which the
// mechanism could take an action given frozen inputs (no submissions or
// completions in between): typically the engine's earliest-issue bound,
// plus any mechanism-internal timers. Mechanisms that cannot bound their
// next action must not implement it — the controller then never reports a
// skippable window.
type EventHinter interface {
	NextEventCycle(now uint64) uint64
}

// RankPrewarmer is declared only because the benchmark harness under
// bench/ still forwards it: nothing in the simulator implements or calls
// it. The next change to that benchmark removes it.
type RankPrewarmer interface {
	PrewarmRanks(lo, hi int)
}

// NextEventCycle returns the earliest cycle at which controller state can
// change, given no new submissions: the next completion, refresh event, or
// mechanism action. It returns now+1 (nothing skippable) whenever the
// current cycle is not settled — a command issued or an access was
// submitted this cycle, so mechanisms may act again immediately.
//
// Callers may safely fast-forward to the returned cycle (accounting the
// gap via AccountSkipped) when the rest of the machine is idle too.
func (c *Controller) NextEventCycle(now uint64) uint64 {
	if c.lastSubmit > now {
		return now + 1
	}
	next := NoEvent
	for i, ch := range c.channels {
		if !ch.CommandSlotFree() {
			return now + 1
		}
		h, ok := c.mechs[i].(EventHinter)
		if !ok {
			return now + 1
		}
		if v := h.NextEventCycle(now); v < next {
			next = v
		}
		if v := ch.NextEventCycle(); v < next {
			next = v
		}
	}
	if !c.completions.empty() {
		if at := c.completions.peek().at; at < next {
			next = at
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// AccountSkipped attributes k skipped idle cycles to the controller's
// per-cycle sampled statistics, exactly as k no-op Ticks would have
// (occupancy cannot change during a skip).
func (c *Controller) AccountSkipped(k uint64) {
	if k == 0 {
		return
	}
	c.Stats.Cycles += k
	c.Stats.OutstandingReads.AddN(c.poolReads, k)
	c.Stats.OutstandingWrites.AddN(c.poolWrites, k)
	if c.poolWrites >= c.cfg.MaxWrites {
		c.Stats.WriteSatCycles += k
	}
	if c.poolReads+c.poolWrites >= c.cfg.PoolSize {
		c.Stats.PoolFullCycles += k
	}
	for _, ch := range c.channels {
		ch.AccountSkipped(k)
	}
	// Skipped cycles are (now, now+k]; occupancy is constant across a skip.
	c.tracer.SampleOccupancySkipped(c.now, c.now+k, c.poolReads, c.poolWrites,
		c.poolWrites >= c.cfg.MaxWrites)
}

// finish retires a completed access: statistics, pool release, callback.
func (c *Controller) finish(a *Access, at uint64) {
	latency := at - a.Arrival
	if a.Kind == KindRead {
		c.Stats.ReadLatency.Add(latency)
		c.Stats.ReadLatencyHist.Add(int(latency))
		if !a.Forwarded {
			c.poolReads--
		}
	} else {
		c.Stats.WriteLatency.Add(latency)
		c.Stats.WriteLatencyHist.Add(int(latency))
		c.poolWrites--
		chIdx := int(a.Loc.Channel)
		line := a.LineAddr(c.cfg.Geometry.LineBytes)
		if cur, ok := c.pendingWriteLines[chIdx].Get(line); ok && cur == a {
			c.pendingWriteLines[chIdx].Delete(line)
		}
	}
	if !a.Forwarded {
		c.Stats.BytesTransferred += uint64(c.cfg.Geometry.LineBytes)
	}
	if c.tracer != nil {
		var flags uint64
		if a.Kind == KindWrite {
			flags |= trace.FlagWrite
		}
		if a.Forwarded {
			flags |= trace.FlagForwarded
		}
		c.tracer.Complete(at, int(a.Loc.Channel), int(a.Loc.Rank), int(a.Loc.Bank),
			a.Loc.Row, a.ID, a.Start, flags)
	}
	if a.OnComplete != nil {
		a.OnComplete(a, at)
	}
}

// ResetStats zeroes all controller and channel statistics without touching
// queue or device state, opening a measurement window after warmup.
func (c *Controller) ResetStats() {
	reads := c.Stats.OutstandingReads
	writes := c.Stats.OutstandingWrites
	rl := c.Stats.ReadLatencyHist
	wl := c.Stats.WriteLatencyHist
	reads.Reset()
	writes.Reset()
	rl.Reset()
	wl.Reset()
	c.Stats = CtrlStats{
		OutstandingReads: reads, OutstandingWrites: writes,
		ReadLatencyHist: rl, WriteLatencyHist: wl,
	}
	for _, ch := range c.channels {
		ch.Stats = dram.Stats{}
	}
}

// Drained reports whether all queues and in-flight completions are empty.
func (c *Controller) Drained() bool {
	return c.poolReads == 0 && c.poolWrites == 0 && c.completions.empty()
}

// BusUtilization aggregates data/address bus utilization across channels.
func (c *Controller) BusUtilization() (data, address float64) {
	if c.Stats.Cycles == 0 {
		return 0, 0
	}
	for _, ch := range c.channels {
		data += ch.Stats.DataBusUtilization(c.Stats.Cycles)
		address += ch.Stats.AddressBusUtilization(c.Stats.Cycles)
	}
	n := float64(len(c.channels))
	return data / n, address / n
}

// RowOutcomeRates aggregates access-level row outcome fractions across
// channels.
func (c *Controller) RowOutcomeRates() (hit, empty, conflict float64) {
	var agg dram.Stats
	for _, ch := range c.channels {
		for i := range agg.Outcomes {
			agg.Outcomes[i] += ch.Stats.Outcomes[i]
		}
	}
	return agg.RowHitRate()
}

// EffectiveBandwidth returns achieved bandwidth in bytes per memory cycle.
// Multiply by the memory clock to get bytes/second (paper Section 5.2
// quotes GB/s at 400 MHz).
func (c *Controller) EffectiveBandwidth() float64 {
	if c.Stats.Cycles == 0 {
		return 0
	}
	return float64(c.Stats.BytesTransferred) / float64(c.Stats.Cycles)
}

// Host is a mechanism's view of the controller: its channel plus the
// shared-state queries and completion plumbing mechanisms need.
type Host struct {
	ctrl  *Controller
	chIdx int
	ch    *dram.Channel

	// reads/writes count the channel's pending accesses (see Pending).
	reads, writes int
}

// Channel returns the host channel device.
func (h *Host) Channel() *dram.Channel { return h.ch }

// ChannelIndex returns which channel this mechanism drives.
func (h *Host) ChannelIndex() int { return h.chIdx }

// Config returns the controller configuration.
func (h *Host) Config() Config { return h.ctrl.cfg }

// Tracer returns the controller's tracer (nil when tracing is off). The
// nil tracer is safe to emit on, so mechanisms never check.
func (h *Host) Tracer() *trace.Tracer { return h.ctrl.tracer }

// Pending returns the channel's pending reads and writes: accesses that
// Submit admitted (forwarded reads excluded) and whose column transaction
// has not issued yet (CompleteAt not yet called). A preempted access stays
// pending.
func (h *Host) Pending() (reads, writes int) { return h.reads, h.writes }

// GlobalWrites returns the controller-wide pending write count, the
// occupancy the paper's threshold compares against.
func (h *Host) GlobalWrites() int { return h.ctrl.poolWrites }

// WriteQueueFull reports whether the write queue is at capacity.
func (h *Host) WriteQueueFull() bool { return h.ctrl.poolWrites >= h.ctrl.cfg.MaxWrites }

// AutoPrecharge reports whether column accesses should auto-precharge
// (Close Page Autoprecharge policy).
func (h *Host) AutoPrecharge() bool { return h.ctrl.cfg.RowPolicy == ClosePageAuto }

// StartAccess records that an access's first transaction is issuing now:
// its start time and the row outcome it encountered. Safe to call on every
// transaction; only the first records (so a preempted-then-restarted write
// keeps its original outcome).
func (h *Host) StartAccess(a *Access, now uint64) {
	a.san.checkLive(a, "StartAccess")
	if a.started {
		return
	}
	a.started = true
	a.Start = now
	a.Outcome = h.ch.Classify(a.Target())
	h.ch.RecordOutcome(a.Outcome)
	h.ctrl.tracer.Start(now, h.chIdx, int(a.Loc.Rank), int(a.Loc.Bank), a.Loc.Row,
		a.ID, int(a.Outcome), a.Kind == KindWrite)
}

// CompleteAt schedules the access-finished event for the given cycle (the
// access's data end); the access stops counting as pending.
func (h *Host) CompleteAt(a *Access, dataEnd uint64) {
	a.san.checkLive(a, "CompleteAt")
	if a.Kind == KindRead {
		h.reads--
	} else {
		h.writes--
	}
	a.DataEnd = dataEnd
	h.ctrl.completions.push(completion{at: dataEnd, access: a})
}
