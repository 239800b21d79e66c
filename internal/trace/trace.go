// Package trace is the simulator's cycle-accurate observability layer: a
// ring-buffered, allocation-free event tracer over the DRAM command
// stream, the controller's access lifecycle and the scheduling mechanisms'
// decisions, plus per-interval derived metrics (row-hit rate, bus
// utilization, queue occupancy time series).
//
// The tracer is attached at runtime (memctrl.Controller.SetTracer); when
// no tracer is attached every emit call is a nil-receiver check that the
// compiler inlines. internal/sim's steady-state allocation tests hold the
// simulation loop at zero allocations without a tracer and with one
// attached (intervals off), and the golden outputs keep simulation results
// bit-identical either way — instrumentation only observes, it never
// steers.
//
// With tracing enabled the stream is deterministic: events are emitted in
// simulated-cycle order from single-threaded simulation code, carry only
// simulated state, and two runs of the same configuration produce
// byte-identical exports (the package is under detlint's scope to keep it
// that way). A run renders as Chrome trace_event JSON for Perfetto via
// WriteChrome, or as an interval metrics time series via Intervals.
package trace

// Kind discriminates trace events.
type Kind uint8

// Event kinds. The first group mirrors the DRAM command stream as issued
// on the channel's command bus (EvAutoPrecharge is the implicit precharge
// of the Close Page Autoprecharge policy — no bus slot, but bank state
// changes). The second group tracks the access lifecycle through the
// controller. The third marks mechanism-level scheduling decisions.
const (
	EvPrecharge Kind = iota
	EvActivate
	EvRead
	EvWrite
	EvRefresh
	EvAutoPrecharge

	EvEnqueue  // access admitted to the pool (Arg0=ID, Arg1=1 for writes)
	EvForward  // read satisfied from the write queue (Arg0=ID)
	EvStart    // first transaction issued (Arg0=ID, Arg1=RowOutcome)
	EvComplete // data finished (Arg0=ID, Arg1=start cycle, Arg2=flags)

	EvPreempt     // ongoing write interrupted by a read (Arg0=write ID)
	EvPiggyback   // write appended at end of burst (Arg0=ID)
	EvForcedWrite // write drained because the write queue is full (Arg0=ID)
	EvIdleWrite   // write drained because no reads are pending (Arg0=ID)
	EvBurstForm   // new burst opened (Arg0=first read's ID)
	EvBurstJoin   // read joined an existing burst (Arg0=ID, Arg1=burst len)
	EvSchedPick   // transaction scheduler pick (Arg0=ID, Arg1=priority, Arg2=command Kind)

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case EvPrecharge:
		return "PRE"
	case EvActivate:
		return "ACT"
	case EvRead:
		return "READ"
	case EvWrite:
		return "WRITE"
	case EvRefresh:
		return "REF"
	case EvAutoPrecharge:
		return "AUTOPRE"
	case EvEnqueue:
		return "enqueue"
	case EvForward:
		return "forward"
	case EvStart:
		return "start"
	case EvComplete:
		return "complete"
	case EvPreempt:
		return "preempt"
	case EvPiggyback:
		return "piggyback"
	case EvForcedWrite:
		return "forced-write"
	case EvIdleWrite:
		return "idle-write"
	case EvBurstForm:
		return "burst-form"
	case EvBurstJoin:
		return "burst-join"
	case EvSchedPick:
		return "sched-pick"
	}
	return "unknown"
}

// Flags for EvComplete's Arg2.
const (
	FlagWrite     uint64 = 1 << 0
	FlagForwarded uint64 = 1 << 1
)

// Event is one fixed-size trace record. Field meaning varies by Kind (see
// the Kind constants); Chan/Rank/Bank locate the event on the channel
// topology and Row carries the DRAM row where one applies. Events hold no
// pointers, so the ring is GC-inert.
type Event struct {
	Cycle uint64
	Arg0  uint64 // access ID or data-start cycle (column commands)
	Arg1  uint64 // kind-specific (see Kind constants)
	Arg2  uint64 // kind-specific
	Row   uint32
	Kind  Kind
	Chan  uint8
	Rank  uint8
	Bank  uint8
}

// Tracer records events into a fixed-capacity ring (oldest overwritten
// first) and folds the stream into per-interval metrics as it goes. The
// zero Tracer is not usable; construct with New. A nil *Tracer is the
// disabled tracer: every method is a no-op.
type Tracer struct {
	ring    []Event
	head    int // next write slot
	n       int // live events (<= len(ring))
	dropped uint64

	interval  uint64 // metrics interval length in cycles (0 = no metrics)
	cur       Interval
	curOpen   bool
	intervals []Interval

	counts [numKinds]uint64
}

// New builds a tracer with capacity for events ring entries and, when
// intervalCycles > 0, a metrics time series with one Interval per
// intervalCycles simulated cycles. events is clamped to at least 1.
func New(events int, intervalCycles uint64) *Tracer {
	if events < 1 {
		events = 1
	}
	return &Tracer{ring: make([]Event, events), interval: intervalCycles}
}

// Enabled reports whether the tracer records anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Dropped returns how many events were overwritten because the ring was
// full. Oracles that need the complete stream (conservation checks) must
// see zero here.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Count returns how many events of the kind were emitted over the whole
// run, including any that have since been overwritten in the ring.
func (t *Tracer) Count(k Kind) uint64 {
	if t == nil || k >= numKinds {
		return 0
	}
	return t.counts[k]
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Events returns the ring's events in emission order (oldest first). The
// returned slice is freshly allocated; call at export time, not per cycle.
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, t.n)
	start := t.head - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out[i] = t.ring[(start+i)%len(t.ring)]
	}
	return out
}

// emit appends one event to the ring and rolls metrics. Callers are the
// inlinable exported wrappers, which have already checked t != nil.
func (t *Tracer) emit(e Event) {
	t.counts[e.Kind]++
	t.ring[t.head] = e
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	if t.n < len(t.ring) {
		t.n++
	} else {
		t.dropped++
	}
	t.rollTo(e.Cycle)
}

// --- emit wrappers -------------------------------------------------------
//
// Each wrapper is a nil check plus a call, so the disabled path inlines to
// a compare-and-branch at every instrumentation site.

// Command records a DRAM command issued on the channel (k one of
// EvPrecharge..EvAutoPrecharge). For column commands dataStart/dataEnd
// bound the data-bus transfer; other commands pass zeros.
func (t *Tracer) Command(cycle uint64, k Kind, ch, rank, bank int, row uint32, dataStart, dataEnd uint64) {
	if t == nil {
		return
	}
	t.command(cycle, k, ch, rank, bank, row, dataStart, dataEnd)
}

func (t *Tracer) command(cycle uint64, k Kind, ch, rank, bank int, row uint32, dataStart, dataEnd uint64) {
	t.emit(Event{
		Cycle: cycle, Kind: k, Chan: uint8(ch), Rank: uint8(rank), Bank: uint8(bank),
		Row: row, Arg0: dataStart, Arg1: dataEnd,
	})
	if t.interval > 0 {
		switch k {
		case EvRead:
			t.cur.Reads++
			t.cur.DataBusCycles += dataEnd - dataStart
		case EvWrite:
			t.cur.Writes++
			t.cur.DataBusCycles += dataEnd - dataStart
		case EvActivate:
			t.cur.Activates++
		case EvPrecharge, EvAutoPrecharge:
			t.cur.Precharges++
		case EvRefresh:
			t.cur.Refreshes++
		}
	}
}

// Enqueue records an access admitted into the controller pool.
func (t *Tracer) Enqueue(cycle uint64, ch, rank, bank int, row uint32, id uint64, write bool) {
	if t == nil {
		return
	}
	var w uint64
	if write {
		w = 1
	}
	t.emit(Event{Cycle: cycle, Kind: EvEnqueue, Chan: uint8(ch), Rank: uint8(rank),
		Bank: uint8(bank), Row: row, Arg0: id, Arg1: w})
	t.cur.Enqueued++
}

// Forward records a read satisfied from the write queue (never reaches the
// device).
func (t *Tracer) Forward(cycle uint64, ch int, id uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Cycle: cycle, Kind: EvForward, Chan: uint8(ch), Arg0: id})
	t.cur.Forwarded++
}

// Start records an access's first transaction issuing, with the row
// outcome it observed (the value of dram.RowOutcome, opaque here).
func (t *Tracer) Start(cycle uint64, ch, rank, bank int, row uint32, id uint64, outcome int, write bool) {
	if t == nil {
		return
	}
	t.start(cycle, ch, rank, bank, row, id, outcome, write)
}

func (t *Tracer) start(cycle uint64, ch, rank, bank int, row uint32, id uint64, outcome int, write bool) {
	var w uint64
	if write {
		w = 1
	}
	t.emit(Event{Cycle: cycle, Kind: EvStart, Chan: uint8(ch), Rank: uint8(rank),
		Bank: uint8(bank), Row: row, Arg0: id, Arg1: uint64(outcome), Arg2: w})
	if t.interval > 0 && outcome >= 0 && outcome < 3 {
		t.cur.Outcomes[outcome]++
	}
}

// Complete records an access's data finishing (reads: data returned;
// writes: drained to the device). start is the cycle its first transaction
// issued (0 for forwarded reads, which never start).
func (t *Tracer) Complete(cycle uint64, ch, rank, bank int, row uint32, id, start uint64, flags uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Cycle: cycle, Kind: EvComplete, Chan: uint8(ch), Rank: uint8(rank),
		Bank: uint8(bank), Row: row, Arg0: id, Arg1: start, Arg2: flags})
	t.cur.Completed++
}

// Mark records a mechanism-level scheduling event: preemption, piggyback,
// forced/idle write, burst formation or join. arg1 is kind-specific (e.g.
// burst length for EvBurstJoin).
func (t *Tracer) Mark(cycle uint64, k Kind, ch, rank, bank int, row uint32, id, arg1 uint64) {
	if t == nil {
		return
	}
	t.mark(cycle, k, ch, rank, bank, row, id, arg1)
}

func (t *Tracer) mark(cycle uint64, k Kind, ch, rank, bank int, row uint32, id, arg1 uint64) {
	t.emit(Event{Cycle: cycle, Kind: k, Chan: uint8(ch), Rank: uint8(rank),
		Bank: uint8(bank), Row: row, Arg0: id, Arg1: arg1})
	if t.interval > 0 {
		switch k {
		case EvPreempt:
			t.cur.Preemptions++
		case EvPiggyback:
			t.cur.Piggybacks++
		}
	}
}

// SchedPick records a transaction-scheduler decision: the chosen access,
// the priority class that won (paper Table 2; 0 for policies without a
// priority table) and the command kind about to issue.
func (t *Tracer) SchedPick(cycle uint64, ch, rank, bank int, id uint64, priority int, cmd Kind) {
	if t == nil {
		return
	}
	t.emit(Event{Cycle: cycle, Kind: EvSchedPick, Chan: uint8(ch), Rank: uint8(rank),
		Bank: uint8(bank), Arg0: id, Arg1: uint64(priority), Arg2: uint64(cmd)})
}

// SampleOccupancy attributes the controller pool occupancy (reads, writes
// outstanding, plus whether the write queue is saturated) to the single
// cycle `cycle`. The controller calls it once per ticked cycle; it feeds
// the interval time series only, not the event ring.
func (t *Tracer) SampleOccupancy(cycle uint64, reads, writes int, writeSat bool) {
	if t == nil || t.interval == 0 {
		return
	}
	t.sampleRange(cycle, cycle, reads, writes, writeSat)
}

// SampleOccupancySkipped attributes a constant occupancy to the skipped
// cycle range (from, to] — the bulk-accounting twin of SampleOccupancy, so
// interval metrics are bit-identical between stepped and skipping runs
// even when a skip straddles an interval boundary.
func (t *Tracer) SampleOccupancySkipped(from, to uint64, reads, writes int, writeSat bool) {
	if t == nil || t.interval == 0 || to <= from {
		return
	}
	t.sampleRange(from+1, to, reads, writes, writeSat)
}

// sampleRange splits the inclusive cycle range across interval boundaries.
func (t *Tracer) sampleRange(from, to uint64, reads, writes int, writeSat bool) {
	for from <= to {
		t.rollTo(from)
		upTo := t.cur.End - 1
		if to < upTo {
			upTo = to
		}
		w := upTo - from + 1
		t.cur.OccCycles += w
		t.cur.OccReadSum += uint64(reads) * w
		t.cur.OccWriteSum += uint64(writes) * w
		if writeSat {
			t.cur.WriteSatCycles += w
		}
		if upTo == to {
			return
		}
		from = upTo + 1
	}
}

// rollTo ensures the current interval contains cycle, closing finished
// intervals. Intervals are aligned to multiples of the interval length;
// stretches with no events and no samples produce no interval at all.
func (t *Tracer) rollTo(cycle uint64) {
	if t.interval == 0 {
		return
	}
	if t.curOpen && cycle < t.cur.End {
		return
	}
	if t.curOpen {
		t.intervals = append(t.intervals, t.cur)
	}
	start := cycle - cycle%t.interval
	t.cur = Interval{Start: start, End: start + t.interval}
	t.curOpen = true
}

// Intervals returns the closed metrics intervals plus the currently open
// one, in cycle order. Empty when the tracer was built without metrics.
func (t *Tracer) Intervals() []Interval {
	if t == nil || !t.curOpen {
		return nil
	}
	out := make([]Interval, 0, len(t.intervals)+1)
	out = append(out, t.intervals...)
	out = append(out, t.cur)
	return out
}

// Interval aggregates one metrics window [Start, End) of the run.
type Interval struct {
	Start, End uint64

	Reads, Writes                    uint64 // column commands issued
	Activates, Precharges, Refreshes uint64
	DataBusCycles                    uint64
	Outcomes                         [3]uint64 // indexed by dram.RowOutcome

	Enqueued, Completed, Forwarded uint64
	Preemptions, Piggybacks        uint64

	// Occupancy integrals over the sampled cycles of the window.
	OccCycles      uint64
	OccReadSum     uint64
	OccWriteSum    uint64
	WriteSatCycles uint64
}

// Cycles returns the window length.
func (iv Interval) Cycles() uint64 { return iv.End - iv.Start }

// RowHitRate returns the fraction of started accesses that were row hits
// (0 when none started).
func (iv Interval) RowHitRate() float64 {
	total := iv.Outcomes[0] + iv.Outcomes[1] + iv.Outcomes[2]
	if total == 0 {
		return 0
	}
	return float64(iv.Outcomes[0]) / float64(total)
}

// DataBusUtil returns data-bus busy cycles as a fraction of the window.
// Busy cycles sum over all traced channels, so with N channels the value
// ranges up to N; divide by the channel count for a per-bus fraction.
func (iv Interval) DataBusUtil() float64 {
	if iv.Cycles() == 0 {
		return 0
	}
	return float64(iv.DataBusCycles) / float64(iv.Cycles())
}

// MeanOutstandingReads returns the mean sampled read-pool occupancy.
func (iv Interval) MeanOutstandingReads() float64 {
	if iv.OccCycles == 0 {
		return 0
	}
	return float64(iv.OccReadSum) / float64(iv.OccCycles)
}

// MeanOutstandingWrites returns the mean sampled write-queue occupancy.
func (iv Interval) MeanOutstandingWrites() float64 {
	if iv.OccCycles == 0 {
		return 0
	}
	return float64(iv.OccWriteSum) / float64(iv.OccCycles)
}

// WriteSaturation returns the fraction of sampled cycles with the write
// queue at capacity.
func (iv Interval) WriteSaturation() float64 {
	if iv.OccCycles == 0 {
		return 0
	}
	return float64(iv.WriteSatCycles) / float64(iv.OccCycles)
}
