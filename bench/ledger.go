package bench

import (
	"fmt"
	"runtime"
	"time"

	"burstmem/internal/bus"
	"burstmem/internal/cache"
	"burstmem/internal/cpu"
	"burstmem/internal/dram"
	"burstmem/internal/memctrl"
	"burstmem/internal/sim"
	"burstmem/internal/workload"
)

// layerID indexes the ledger's cost buckets.
type layerID int

// The ledger's layers. Grid is a job's setup: assembling its machine from
// the public constructors. Residual is the job's root span: time spent in
// no layer's span (loop bookkeeping and statistics collection).
const (
	layerWorkload layerID = iota
	layerCPU
	layerL1D
	layerL2
	layerBus
	layerMemctrl
	layerSched
	layerSim
	layerGrid
	layerResidual
	numLayers
)

// layerNames are the metric prefixes of the layers.
var layerNames = [numLayers]string{
	"workload", "cpu", "cache.l1d", "cache.l2", "bus", "memctrl", "sched", "sim", "grid", "residual",
}

func (l layerID) String() string { return layerNames[l] }

type frame struct {
	layer layerID
	start time.Duration
	child time.Duration // part of the span covered by child spans
}

// ledger accumulates per-layer self time and call counts over an
// in-memory span stack: a span's self time is its duration minus the time
// of its child spans. A ledger belongs to one job on one goroutine; a nil
// *ledger records nothing, which is how the untimed loop runs.
type ledger struct {
	base     time.Time
	stack    []frame
	self     [numLayers]time.Duration
	calls    [numLayers]uint64
	children [numLayers]uint64 // child spans closed inside each layer's spans

	// Model counters observed at the wrapped boundaries.
	ops, memOps           uint64 // generated instructions, and those that access memory
	schedTicks, cmdsTicks uint64 // mechanism ticks, and those that issued a command
}

// newLedger returns an empty ledger whose clock starts now.
func newLedger() *ledger {
	return &ledger{base: time.Now(), stack: make([]frame, 0, 16)}
}

func (l *ledger) enter(id layerID) {
	if l == nil {
		return
	}
	l.stack = append(l.stack, frame{layer: id, start: time.Since(l.base)})
}

func (l *ledger) exit() {
	if l == nil {
		return
	}
	end := time.Since(l.base)
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	d := end - f.start
	l.self[f.layer] += d - f.child
	l.calls[f.layer]++
	if n > 0 {
		l.stack[n-1].child += d
		l.children[l.stack[n-1].layer]++
	}
}

// add folds another ledger's totals into l.
func (l *ledger) add(o *ledger) {
	for i := range l.self {
		l.self[i] += o.self[i]
		l.calls[i] += o.calls[i]
		l.children[i] += o.children[i]
	}
	l.ops += o.ops
	l.memOps += o.memOps
	l.schedTicks += o.schedTicks
	l.cmdsTicks += o.cmdsTicks
}

// spanCost is the ledger's own cost per span in nanoseconds: in lands
// inside the span (between its two clock reads), out in its parent's self
// time.
type spanCost struct{ in, out float64 }

// calibrationSpans is the number of empty spans one calibration trial times.
const calibrationSpans = 1 << 16

// calibrateSpans measures spanCost on empty spans, as the median of
// several trials.
func calibrateSpans() spanCost {
	const trials = 7
	in := make([]float64, trials)
	out := make([]float64, trials)
	for t := range in {
		l := newLedger()
		l.enter(layerResidual)
		for i := 0; i < calibrationSpans; i++ {
			l.enter(layerSim)
			l.exit()
		}
		l.exit()
		in[t] = float64(l.self[layerSim]) / calibrationSpans
		out[t] = float64(l.self[layerResidual]) / calibrationSpans
	}
	return spanCost{in: Median(in), out: Median(out)}
}

// costOf is the time, under c, that the ledger's own spans added to
// layer i's self time: c.in per span of the layer, c.out per child span.
func (l *ledger) costOf(i int, c spanCost) float64 {
	return float64(l.calls[i])*c.in + float64(l.children[i])*c.out
}

// attribute splits untimed — the duration of the same work run without
// the ledger — across the layers. The ledger's own cost is the traced
// minus the untimed duration; it is divided between the spans in the
// proportions c gives and taken out of each layer's self time (a tiny
// layer that noise pushes below zero is clamped there). It returns each
// layer's share and the resulting cost of one span.
func (l *ledger) attribute(untimed time.Duration, c spanCost) (shares [numLayers]float64, spanNs float64) {
	var traced, predicted float64
	for i := range l.self {
		traced += float64(l.self[i])
		predicted += l.costOf(i, c)
	}
	scale := 0.0
	if overhead := traced - float64(untimed); overhead > 0 && predicted > 0 {
		scale = overhead / predicted
	}
	var self [numLayers]float64
	var total float64
	for i := range self {
		self[i] = max(0, float64(l.self[i])-scale*l.costOf(i, c))
		total += self[i]
	}
	for i := range shares {
		shares[i] = ratio(self[i], total)
	}
	return shares, scale * (c.in + c.out)
}

// timedGen times Generator.Next as the workload layer.
type timedGen struct {
	gen workload.Generator
	l   *ledger
}

func (g *timedGen) Name() string { return g.gen.Name() }

func (g *timedGen) Next() workload.Op {
	g.l.enter(layerWorkload)
	op := g.gen.Next()
	g.l.exit()
	g.l.ops++
	if op.Type != workload.OpNonMem {
		g.l.memOps++
	}
	return op
}

// timedPort times the CPU's data port into the L1D, forwarding the
// optional fused-load and allocation-probe ports the CPU looks for, so the
// traced CPU takes the same issue path as the untraced one.
type timedPort struct {
	c *cache.Cache
	l *ledger
}

func (p *timedPort) Access(addr uint64, isWrite bool, done func()) cache.Result {
	p.l.enter(layerL1D)
	r := p.c.Access(addr, isWrite, done)
	p.l.exit()
	return r
}

func (p *timedPort) AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result {
	p.l.enter(layerL1D)
	r := p.c.AccessLoad(addr, mayAllocate, done)
	p.l.exit()
	return r
}

func (p *timedPort) WouldAllocate(addr uint64) bool {
	p.l.enter(layerL1D)
	r := p.c.WouldAllocate(addr)
	p.l.exit()
	return r
}

// timedBackend times a cache's backend: the L2 (below the L1D) or the FSB
// (below the L2).
type timedBackend struct {
	b     cache.Backend
	layer layerID
	l     *ledger
}

func (b *timedBackend) ReadLine(addr uint64, done func()) bool {
	b.l.enter(b.layer)
	ok := b.b.ReadLine(addr, done)
	b.l.exit()
	return ok
}

func (b *timedBackend) WriteLine(addr uint64) bool {
	b.l.enter(b.layer)
	ok := b.b.WriteLine(addr)
	b.l.exit()
	return ok
}

// timedMech times a channel's scheduling mechanism and counts the ticks
// on which it issued a command.
type timedMech struct {
	m  memctrl.Mechanism
	ch *dram.Channel
	l  *ledger
}

// timedFactory wraps every mechanism the factory builds.
func timedFactory(f memctrl.Factory, l *ledger) memctrl.Factory {
	return func(h *memctrl.Host) memctrl.Mechanism {
		return &timedMech{m: f(h), ch: h.Channel(), l: l}
	}
}

func (t *timedMech) Name() string                 { return t.m.Name() }
func (t *timedMech) Pending() (reads, writes int) { return t.m.Pending() }
func (t *timedMech) ForwardsWrites() bool         { return t.m.ForwardsWrites() }

func (t *timedMech) Enqueue(a *memctrl.Access, now uint64) {
	t.l.enter(layerSched)
	t.m.Enqueue(a, now)
	t.l.exit()
}

func (t *timedMech) Tick(now uint64) {
	t.l.enter(layerSched)
	free := t.ch.CommandSlotFree()
	t.m.Tick(now)
	t.l.schedTicks++
	if free && !t.ch.CommandSlotFree() {
		t.l.cmdsTicks++
	}
	t.l.exit()
}

// NextEventCycle forwards memctrl.EventHinter. A mechanism without a hint
// answers now+1, which is exactly what the controller assumes for it.
func (t *timedMech) NextEventCycle(now uint64) uint64 {
	if h, ok := t.m.(memctrl.EventHinter); ok {
		return h.NextEventCycle(now)
	}
	return now + 1
}

// PrewarmRanks forwards memctrl.RankPrewarmer; only the parallel engine
// calls it, and the benchmark never enables that engine.
func (t *timedMech) PrewarmRanks(lo, hi int) {
	if p, ok := t.m.(memctrl.RankPrewarmer); ok {
		p.PrewarmRanks(lo, hi)
	}
}

// machine is a single-core system assembled from the public constructors
// and driven by the benchmark's own clock loop, so every layer boundary
// can be timed. With a nil ledger it is the untimed reference loop.
type machine struct {
	cfg  sim.Config
	sys  *sim.System // the assembled parts, for ResetStats and Collect
	core *cpu.CPU
	l1d  *cache.Cache
	l2   *cache.Cache
	fsb  *bus.FSB
	ctrl *memctrl.Controller
	led  *ledger

	ratio        uint64
	cycle        uint64
	measureStart uint64
	loopStats
}

// loopStats are the clock loop's own counters.
type loopStats struct {
	// Memory cycles whose CPU domain was inert (collapsed into
	// SkipCycles), skips taken, and memory cycles skipped.
	inert, skips, skipped uint64
	// steadyAllocs counts heap allocations between the end of warmup and
	// the end of the run.
	steadyAllocs uint64
}

// assemble wires the machine sim.NewSystem would build for a single core,
// wrapping each layer boundary when led is non-nil.
func assemble(cfg sim.Config, prof workload.Profile, factory memctrl.Factory, led *ledger) (*machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores > 1 {
		return nil, fmt.Errorf("bench: the ledger loop drives one core, not %d", cfg.Cores)
	}
	led.enter(layerGrid)
	defer led.exit()
	gen, err := workload.New(prof)
	if err != nil {
		return nil, err
	}
	// As in sim.NewSystem: warm-start dirtiness tracks the store share.
	if cfg.L2.WarmStart {
		cfg.L2.WarmDirtyPercent = int(prof.StoreFraction * 100)
	}
	if led != nil {
		gen = &timedGen{gen: gen, l: led}
		factory = timedFactory(factory, led)
	}
	ctrl, err := memctrl.New(cfg.Mem, factory)
	if err != nil {
		return nil, err
	}
	fsb, err := bus.New(cfg.FSB, ctrl)
	if err != nil {
		return nil, err
	}
	var toFSB cache.Backend = fsb
	if led != nil {
		toFSB = &timedBackend{b: fsb, layer: layerBus, l: led}
	}
	l2, err := cache.New(cfg.L2, toFSB)
	if err != nil {
		return nil, err
	}
	toL2 := l2.AsBackend()
	if led != nil {
		toL2 = &timedBackend{b: toL2, layer: layerL2, l: led}
	}
	l1d, err := cache.New(cfg.L1D, toL2)
	if err != nil {
		return nil, err
	}
	var port cpu.Mem = l1d
	if led != nil {
		port = &timedPort{c: l1d, l: led}
	}
	core, err := cpu.New(cfg.CPU, gen, port)
	if err != nil {
		return nil, err
	}
	sys := &sim.System{Cfg: cfg, CPU: core, L1D: l1d, CPUs: []*cpu.CPU{core},
		L1Ds: []*cache.Cache{l1d}, L2: l2, FSB: fsb, Ctrl: ctrl}
	return &machine{cfg: cfg, sys: sys, core: core, l1d: l1d, l2: l2, fsb: fsb, ctrl: ctrl,
		led: led, ratio: uint64(cfg.CPUCyclesPerMemCycle)}, nil
}

// run drives the machine through warmup and the measurement window with
// the protocol of sim.RunSystem, minus its controller tick windows (which
// are bit-identical to ticking cycle by cycle).
func (m *machine) run(name string) (sim.Result, error) {
	cfg := m.cfg
	maxCycles := cfg.MaxMemCycles
	if maxCycles == 0 {
		maxCycles = (cfg.WarmupInstructions+cfg.Instructions)*40 + 1_000_000
	}
	var ms runtime.MemStats
	target := cfg.WarmupInstructions + cfg.Instructions
	warmed := cfg.WarmupInstructions == 0
	if warmed {
		runtime.ReadMemStats(&ms)
	}
	for m.core.Retired() < target {
		if m.cycle >= maxCycles {
			return sim.Result{}, fmt.Errorf("bench: %s exceeded %d memory cycles with %d/%d instructions retired",
				name, maxCycles, m.core.Retired(), target)
		}
		if !warmed && m.core.Retired() >= cfg.WarmupInstructions {
			m.sys.ResetStats()
			m.measureStart = m.cycle
			target = m.core.Retired() + cfg.Instructions
			warmed = true
			runtime.ReadMemStats(&ms)
		}
		m.step()
		if r := m.core.Retired(); r < target && (warmed || r < cfg.WarmupInstructions) {
			m.trySkip()
		}
	}
	mallocs := ms.Mallocs
	runtime.ReadMemStats(&ms)
	m.steadyAllocs = ms.Mallocs - mallocs
	res := m.sys.Collect(name)
	res.MemCycles = m.cycle - m.measureStart
	return res, nil
}

// step advances one memory cycle as sim.System.StepMemCycle does.
func (m *machine) step() {
	m.cycle++
	l := m.led
	l.enter(layerMemctrl)
	m.ctrl.Tick(m.cycle)
	l.exit()
	l.enter(layerBus)
	m.fsb.Tick(m.cycle)
	l.exit()
	l.enter(layerSim)
	r := m.ratio
	inert := m.l2.InertFor(r) && m.l1d.InertFor(r) && m.core.InertFor(r)
	if inert {
		m.l2.SkipCycles(r)
		m.l1d.SkipCycles(r)
		m.core.SkipCycles(r)
	}
	l.exit()
	if inert {
		m.inert++
		return
	}
	for i := uint64(0); i < r; i++ {
		l.enter(layerL2)
		m.l2.Tick()
		l.exit()
		l.enter(layerL1D)
		m.l1d.Tick()
		l.exit()
		l.enter(layerCPU)
		m.core.Tick()
		l.exit()
	}
}

// trySkip jumps the clock over cycles on which nothing can happen, as
// sim.System.TrySkip does, bounded by the exact minimum of the memory
// domain's next events.
func (m *machine) trySkip() {
	m.led.enter(layerSim)
	defer m.led.exit()
	if !m.l2.SkipEligible() || !m.l1d.SkipEligible() || !m.core.SkipEligible() {
		return
	}
	next := m.ctrl.NextEventCycle(m.cycle)
	if f := m.fsb.NextEventCycle(m.cycle); f < next {
		next = f
	}
	if next == memctrl.NoEvent || next <= m.cycle+1 {
		return
	}
	k := next - 1 - m.cycle
	m.ctrl.AccountSkipped(k)
	m.fsb.AccountSkipped(k)
	n := k * m.ratio
	m.l2.SkipCycles(n)
	m.l1d.SkipCycles(n)
	m.core.SkipCycles(n)
	m.cycle += k
	m.skips++
	m.skipped += k
}
