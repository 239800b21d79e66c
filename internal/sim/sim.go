// Package sim wires the full baseline machine together — out-of-order CPU,
// L1/L2 caches, front-side bus, memory controller and DDR2 devices — and
// runs benchmark simulations, producing the measurements the paper's
// evaluation reports (execution time, access latencies, row outcome rates,
// bus utilization, outstanding-access distributions, write-queue
// saturation).
//
// Clocking: the master loop advances one memory cycle (400 MHz) at a time;
// the FSB logic runs in the memory domain and the CPU and caches tick
// CPUCyclesPerMemCycle times (10, for the 4 GHz core) per memory cycle.
package sim

import (
	"fmt"
	"strconv"
	"strings"

	"burstmem/internal/bus"
	"burstmem/internal/cache"
	"burstmem/internal/core"
	"burstmem/internal/cpu"
	"burstmem/internal/dram"
	"burstmem/internal/eventq"
	"burstmem/internal/memctrl"
	"burstmem/internal/sched"
	"burstmem/internal/stats"
	"burstmem/internal/trace"
	"burstmem/internal/workload"
)

// Config assembles the machine (Table 3 defaults via DefaultConfig).
type Config struct {
	CPU cpu.Config
	L1D cache.Config
	L2  cache.Config
	FSB bus.Config
	Mem memctrl.Config

	// CPUCyclesPerMemCycle is the CPU:memory clock ratio (4 GHz : 400 MHz
	// = 10).
	CPUCyclesPerMemCycle int

	// Cores instantiates a chip multiprocessor: each core gets its own
	// CPU and L1D (running the same benchmark profile with a different
	// seed) and all cores share the L2 and the memory system. The
	// paper's Section 6 predicts access reordering grows more important
	// as CMPs multiply outstanding accesses; cmd/experiments -exp cmp
	// measures that. 0 or 1 means a single core.
	Cores int

	// WarmupInstructions run before the measurement window opens (caches
	// fill, writeback traffic reaches steady state); statistics are then
	// reset and Instructions more are measured.
	WarmupInstructions uint64
	// Instructions is the measured retirement target per run.
	Instructions uint64
	// MaxMemCycles aborts runaway simulations; 0 derives a generous
	// bound from Instructions.
	MaxMemCycles uint64
}

// DefaultConfig returns the paper's Table 3 baseline machine.
func DefaultConfig() Config {
	return Config{
		CPU:                  cpu.DefaultConfig(),
		L1D:                  cache.L1Config("L1D"),
		L2:                   cache.L2Config(),
		FSB:                  bus.DefaultConfig(),
		Mem:                  memctrl.DefaultConfig(),
		CPUCyclesPerMemCycle: 10,
		WarmupInstructions:   300_000,
		Instructions:         1_000_000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.L1D.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.FSB.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.CPUCyclesPerMemCycle < 1 {
		return fmt.Errorf("sim: CPU:mem clock ratio must be >= 1")
	}
	if c.Cores < 0 || c.Cores > 64 {
		return fmt.Errorf("sim: cores %d out of [0, 64]", c.Cores)
	}
	if c.Instructions == 0 {
		return fmt.Errorf("sim: zero instruction target")
	}
	return nil
}

// Result is one simulation's measurements.
type Result struct {
	Mechanism string
	Benchmark string
	Cores     int

	Instructions uint64 // total retired across cores in the window
	CPUCycles    uint64
	MemCycles    uint64
	IPC          float64

	ReadLatency  float64 // mean, memory cycles
	WriteLatency float64
	// Latency percentiles in memory cycles (tail behaviour).
	ReadLatencyP50 int
	ReadLatencyP95 int
	ReadLatencyP99 int

	RowHit, RowEmpty, RowConflict float64

	DataBusUtil float64
	AddrBusUtil float64

	WriteSaturation float64 // fraction of time the write queue was full
	ForwardedReads  uint64
	MemReads        uint64
	MemWrites       uint64

	// BandwidthGBps is effective bandwidth at the 400 MHz memory clock.
	BandwidthGBps float64

	// EnergyPerAccessNJ and AvgMemPowerW come from the Micron-style DRAM
	// power model (internal/dram): command energies plus background
	// power, summed over channels for the measurement window.
	EnergyPerAccessNJ float64
	AvgMemPowerW      float64

	// OutstandingReads/Writes are the per-cycle occupancy distributions
	// (paper Figure 8).
	OutstandingReads  *stats.Histogram
	OutstandingWrites *stats.Histogram

	// Substructure statistics for deeper analysis.
	CPUStats cpu.Stats
	L1DStats cache.Stats
	L2Stats  cache.Stats
	FSBStats bus.Stats
}

// System is an assembled machine, steppable for fine-grained tests.
// Single-core systems (the default) expose their core as CPU/L1D; CMP
// configurations populate CPUs/L1Ds with CPU/L1D aliasing core 0.
type System struct {
	Cfg  Config
	CPU  *cpu.CPU
	L1D  *cache.Cache
	CPUs []*cpu.CPU
	L1Ds []*cache.Cache
	L2   *cache.Cache
	FSB  *bus.FSB
	Ctrl *memctrl.Controller

	// DisableSkip forces FastForward/TrySkip to step every cycle
	// (reference mode for equivalence testing).
	DisableSkip bool

	// skipWheel aggregates the machine's next-event sources — the memory
	// controller (mechanism timers, refresh, completions) and the FSB —
	// into one event wheel, so TrySkip's bound is a single PeekMin. The
	// wheel's far-bucket answer is a conservative lower bound: a skip can
	// only come up short, never jump an event, and the next iteration
	// resumes skipping from the landing cycle.
	skipWheel *eventq.Wheel

	memCycle     uint64 // the machine clock
	measureStart uint64 // memCycle when the measurement window opened
}

// skipWheel handles: one per machine-level next-event source.
const (
	skipSrcCtrl = iota
	skipSrcFSB
	numSkipSrcs
)

// TrySkip passes controller/FSB hints straight into Wheel.Schedule, which
// treats NoDeadline as "unschedule"; the sentinels must therefore agree
// (compile error here if they ever drift).
var _ = [1]struct{}{}[memctrl.NoEvent-eventq.NoDeadline]

// NewSystem builds the machine for one benchmark profile and mechanism.
func NewSystem(cfg Config, prof workload.Profile, factory memctrl.Factory) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gens := make([]workload.Generator, maxInt(1, cfg.Cores))
	for i := range gens {
		coreProf := prof
		if i > 0 {
			// Same benchmark, decorrelated stream per core.
			coreProf.Seed = prof.Seed + uint64(i)*0x9E37
		}
		g, err := workload.New(coreProf)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	// Warm-start dirtiness tracks the workload's store share, so the
	// steady-state writeback rate matches what a long run would reach.
	if cfg.L2.WarmStart {
		cfg.L2.WarmDirtyPercent = int(prof.StoreFraction * 100)
	}
	return newSystem(cfg, gens, factory)
}

// NewSystemWithGenerators builds the machine over caller-supplied
// instruction generators (e.g. parsed trace files), one per core. Use this
// to run recorded program traces instead of the synthetic profiles.
func NewSystemWithGenerators(cfg Config, gens []workload.Generator, factory memctrl.Factory) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if want := maxInt(1, cfg.Cores); len(gens) != want {
		return nil, fmt.Errorf("sim: %d generators for %d cores", len(gens), want)
	}
	return newSystem(cfg, gens, factory)
}

// newSystem wires the machine once generators are resolved.
func newSystem(cfg Config, gens []workload.Generator, factory memctrl.Factory) (*System, error) {
	ctrl, err := memctrl.New(cfg.Mem, factory)
	if err != nil {
		return nil, err
	}
	fsb, err := bus.New(cfg.FSB, ctrl)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2, fsb)
	if err != nil {
		return nil, err
	}
	sys := &System{Cfg: cfg, L2: l2, FSB: fsb, Ctrl: ctrl,
		skipWheel: eventq.NewWheel(numSkipSrcs)}
	for _, gen := range gens {
		l1d, err := cache.New(cfg.L1D, l2.AsBackend())
		if err != nil {
			return nil, err
		}
		cpuCore, err := cpu.New(cfg.CPU, gen, l1d)
		if err != nil {
			return nil, err
		}
		sys.CPUs = append(sys.CPUs, cpuCore)
		sys.L1Ds = append(sys.L1Ds, l1d)
	}
	sys.CPU = sys.CPUs[0]
	sys.L1D = sys.L1Ds[0]
	return sys, nil
}

// StepMemCycle advances the machine one memory cycle. When every CPU-clock
// component reports (via its NextEventCycle bound) that all R subcycles of
// this memory cycle are inert — pure clock/stall accounting — the R-step
// Tick loop collapses into one SkipCycles(R) per component. This is a
// memory-cycle-local skip: unlike TrySkip it applies even while the memory
// system is busy, which is exactly where FSB-bound phases spend their time.
func (s *System) StepMemCycle() {
	s.memCycle++
	s.Ctrl.Tick(s.memCycle)
	s.FSB.Tick(s.memCycle)
	r := uint64(s.Cfg.CPUCyclesPerMemCycle)
	if !s.DisableSkip && s.cpuDomainInertFor(r) {
		s.L2.SkipCycles(r)
		for c := range s.CPUs {
			s.L1Ds[c].SkipCycles(r)
			s.CPUs[c].SkipCycles(r)
		}
		return
	}
	for i := 0; i < s.Cfg.CPUCyclesPerMemCycle; i++ {
		s.L2.Tick()
		for c := range s.CPUs {
			s.L1Ds[c].Tick()
			s.CPUs[c].Tick()
		}
	}
}

// cpuDomainInertFor reports whether every CPU-clock component's next n
// Ticks are provably equivalent to SkipCycles(n).
func (s *System) cpuDomainInertFor(n uint64) bool {
	if !s.L2.InertFor(n) {
		return false
	}
	for c := range s.CPUs {
		if !s.L1Ds[c].InertFor(n) || !s.CPUs[c].InertFor(n) {
			return false
		}
	}
	return true
}

// FastForward advances one memory cycle like StepMemCycle, then — when the
// whole machine is provably stalled waiting on the memory system — jumps
// the clock to just before the next cycle at which any component can act.
// Machine state evolution is bit-identical to stepping every cycle: a skip
// happens only when every skipped Tick would have been a no-op apart from
// cycle/stall counters, which are applied in bulk.
//
// Callers that open a measurement window mid-run (ResetStats) or stop at a
// retirement target must not let a skip straddle the boundary cycle — the
// bulk-accounted stall cycles would land on the wrong side of the window.
// Drive StepMemCycle and TrySkip separately there, as runSystem does.
func (s *System) FastForward() {
	s.StepMemCycle()
	s.TrySkip()
}

// TrySkip jumps the clock over cycles on which provably nothing can happen
// and returns how many memory cycles were skipped (0 when any component is
// active or the next event is imminent).
func (s *System) TrySkip() uint64 {
	if s.DisableSkip {
		return 0
	}
	// Every CPU-domain component must be provably idle until external
	// input arrives; otherwise step normally.
	if !s.L2.SkipEligible() {
		return 0
	}
	for c := range s.CPUs {
		if !s.L1Ds[c].SkipEligible() || !s.CPUs[c].SkipEligible() {
			return 0
		}
	}
	// Memory-domain components bound the next state transition. Each
	// source's bound lands in the wheel (NoEvent == eventq.NoDeadline
	// unschedules it) and one peek yields the machine-wide minimum.
	if s.skipWheel.NeedRebase(s.memCycle) {
		s.skipWheel.Rebase(s.memCycle)
	}
	s.skipWheel.Schedule(skipSrcCtrl, s.Ctrl.NextEventCycle(s.memCycle))
	s.skipWheel.Schedule(skipSrcFSB, s.FSB.NextEventCycle(s.memCycle))
	next, ok := s.skipWheel.PeekMin()
	if !ok || next <= s.memCycle+1 {
		return 0
	}
	// Land one cycle before the event so the event cycle itself is
	// stepped in full.
	k := next - 1 - s.memCycle
	s.Ctrl.AccountSkipped(k)
	s.FSB.AccountSkipped(k)
	n := k * uint64(s.Cfg.CPUCyclesPerMemCycle)
	s.L2.SkipCycles(n)
	for c := range s.CPUs {
		s.L1Ds[c].SkipCycles(n)
		s.CPUs[c].SkipCycles(n)
	}
	s.memCycle += k
	return k
}

// MinRetired returns the lowest lifetime retirement count across cores
// (the run target for CMP simulations, so every core completes its share).
func (s *System) MinRetired() uint64 {
	min := s.CPUs[0].Retired()
	for _, c := range s.CPUs[1:] {
		if r := c.Retired(); r < min {
			min = r
		}
	}
	return min
}

// MemCycle returns the current memory cycle.
func (s *System) MemCycle() uint64 { return s.memCycle }

// AttachTracer attaches an observability tracer to the memory system (see
// internal/trace). Attach before running; tracing observes only and leaves
// simulation results bit-identical.
func (s *System) AttachTracer(tr *trace.Tracer) { s.Ctrl.SetTracer(tr) }

// Run executes one simulation to the instruction target and collects the
// result.
func Run(cfg Config, prof workload.Profile, factory memctrl.Factory) (Result, error) {
	sys, err := NewSystem(cfg, prof, factory)
	if err != nil {
		return Result{}, err
	}
	return runSystem(cfg, sys, prof.Name)
}

// RunSystem drives a caller-assembled machine (e.g. one with a tracer
// attached) through warmup and the measurement window.
func RunSystem(cfg Config, sys *System, name string) (Result, error) {
	return runSystem(cfg, sys, name)
}

// runSystem drives an assembled machine through warmup and the measurement
// window.
func runSystem(cfg Config, sys *System, name string) (Result, error) {
	maxCycles := cfg.MaxMemCycles
	if maxCycles == 0 {
		cores := uint64(1)
		if cfg.Cores > 1 {
			cores = uint64(cfg.Cores)
		}
		maxCycles = (cfg.WarmupInstructions+cfg.Instructions)*40*cores + 1_000_000
	}
	// The measurement window is anchored where warmup actually ended
	// (retirement may overshoot the warmup target by up to one dispatch
	// group), so the window always covers >= Instructions retirements.
	target := cfg.WarmupInstructions + cfg.Instructions
	warmed := cfg.WarmupInstructions == 0
	for sys.MinRetired() < target {
		if sys.memCycle >= maxCycles {
			return Result{}, fmt.Errorf("sim: %s/%s exceeded %d memory cycles with %d/%d instructions retired",
				sys.Ctrl.MechanismName(), name, maxCycles, sys.MinRetired(), target)
		}
		if !warmed && sys.MinRetired() >= cfg.WarmupInstructions {
			sys.ResetStats()
			target = sys.MinRetired() + cfg.Instructions
			warmed = true
		}
		sys.StepMemCycle()
		// Skip idle stretches, but never across a window boundary: the
		// cycle that crosses the warmup threshold must ResetStats before
		// any bulk stall accounting, and the cycle that reaches the
		// target must end the run exactly there.
		if r := sys.MinRetired(); r < target && (warmed || r < cfg.WarmupInstructions) {
			sys.TrySkip()
		}
	}
	return sys.Collect(name), nil
}

// ResetStats opens the measurement window: all statistics reset while
// architectural and timing state (cache contents, queues, bank states)
// carry over.
func (s *System) ResetStats() {
	s.measureStart = s.memCycle
	s.Ctrl.ResetStats()
	s.FSB.ResetStats()
	s.L2.ResetStats()
	for c := range s.CPUs {
		s.L1Ds[c].ResetStats()
		s.CPUs[c].ResetStats()
	}
}

// memClockHz is the DDR2-800 command clock.
const memClockHz = 400e6

// Collect snapshots the current measurements.
func (s *System) Collect(benchmark string) Result {
	ctrl := s.Ctrl
	hit, empty, conflict := ctrl.RowOutcomeRates()
	data, addr := ctrl.BusUtilization()
	var totalEnergy, totalPower, accesses float64
	for i := 0; i < ctrl.Channels(); i++ {
		ch := ctrl.Channel(i)
		rep, perr := ch.PowerReport(dram.DefaultPowerParams(), ctrl.Stats.Cycles, memClockHz)
		if perr == nil {
			totalEnergy += rep.TotalEnergyNJ
			totalPower += rep.AveragePowerW
			accesses += float64(ch.Stats.Reads + ch.Stats.Writes)
		}
	}
	var energyPerAccess float64
	if accesses > 0 {
		energyPerAccess = totalEnergy / accesses
	}
	var retired uint64
	for _, c := range s.CPUs {
		retired += c.Stats.Retired
	}
	res := Result{
		Mechanism:    ctrl.MechanismName(),
		Benchmark:    benchmark,
		Cores:        len(s.CPUs),
		Instructions: retired,
		CPUCycles:    s.CPU.Cycles(),
		MemCycles:    s.memCycle - s.measureStart,
		IPC:          float64(retired) / float64(maxU64(1, s.CPU.Stats.Cycles)),

		ReadLatency:    ctrl.Stats.ReadLatency.Mean(),
		WriteLatency:   ctrl.Stats.WriteLatency.Mean(),
		ReadLatencyP50: ctrl.Stats.ReadLatencyHist.Percentile(0.50),
		ReadLatencyP95: ctrl.Stats.ReadLatencyHist.Percentile(0.95),
		ReadLatencyP99: ctrl.Stats.ReadLatencyHist.Percentile(0.99),

		RowHit:      hit,
		RowEmpty:    empty,
		RowConflict: conflict,

		DataBusUtil: data,
		AddrBusUtil: addr,

		WriteSaturation: ctrl.Stats.WriteSaturationRate(),
		ForwardedReads:  ctrl.Stats.ForwardedReads,
		MemReads:        ctrl.Stats.AcceptedReads,
		MemWrites:       ctrl.Stats.AcceptedWrites,

		// bytes/memcycle * 400e6 cycles/s / 1e9 = GB/s
		BandwidthGBps: ctrl.EffectiveBandwidth() * 0.4,

		EnergyPerAccessNJ: energyPerAccess,
		AvgMemPowerW:      totalPower,

		OutstandingReads:  ctrl.Stats.OutstandingReads,
		OutstandingWrites: ctrl.Stats.OutstandingWrites,

		CPUStats: s.CPU.Stats,
		L1DStats: s.L1D.Stats,
		L2Stats:  s.L2.Stats,
		FSBStats: s.FSB.Stats,
	}
	return res
}

// RunGenerator executes a simulation over a caller-supplied generator
// (e.g. a parsed trace), single- or multi-core (one generator per core).
func RunGenerator(cfg Config, name string, gens []workload.Generator, factory memctrl.Factory) (Result, error) {
	sys, err := NewSystemWithGenerators(cfg, gens, factory)
	if err != nil {
		return Result{}, err
	}
	return runSystem(cfg, sys, name)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// MechanismNames lists the mechanisms of paper Table 4 in its order.
// "Burst_TH" uses the paper's best static threshold of 52.
func MechanismNames() []string {
	return []string{"BkInOrder", "RowHit", "Intel", "Intel_RP", "Burst", "Burst_RP", "Burst_WP", "Burst_TH"}
}

// BestThreshold is the paper's experimentally determined optimum (of a
// 64-entry write queue).
const BestThreshold = 52

// MechanismByName resolves a Table 4 mechanism name to its factory.
// "Burst_TH" takes the paper's default threshold 52; "Burst_TH<n>" selects
// threshold n.
func MechanismByName(name string) (memctrl.Factory, error) {
	switch name {
	case "BkInOrder":
		return sched.BkInOrder(), nil
	case "InOrder":
		return sched.InOrder(), nil
	case "RowHit":
		return sched.RowHit(), nil
	case "Intel":
		return sched.Intel(), nil
	case "Intel_RP":
		return sched.IntelRP(), nil
	case "Burst":
		return core.Burst(), nil
	case "Burst_RP":
		return core.BurstRP(), nil
	case "Burst_WP":
		return core.BurstWP(), nil
	case "Burst_Naive":
		return core.BurstNaive(), nil
	case "Burst_DYN":
		return core.BurstDynTH(), nil
	case "Burst_SZ":
		return core.BurstSized(), nil
	case "Burst_TH":
		return core.BurstTH(BestThreshold), nil
	}
	if rest, ok := strings.CutPrefix(name, "Burst_TH"); ok {
		th, err := strconv.Atoi(rest)
		if err != nil || th < 0 {
			return nil, fmt.Errorf("sim: bad burst threshold in %q", name)
		}
		return core.BurstTH(th), nil
	}
	return nil, fmt.Errorf("sim: unknown mechanism %q (known: %v)", name, MechanismNames())
}
