// Package burstmem is a cycle-accurate DDR2 memory-system simulator built
// around the burst scheduling access reordering mechanism of Shao & Davis,
// "A Burst Scheduling Access Reordering Mechanism" (HPCA 2007).
//
// The library contains a complete reproduction stack:
//
//   - a DDR2 SDRAM device timing model (banks, ranks, channels, refresh,
//     data-bus contention and rank turnaround),
//   - a memory controller chassis with a shared access pool, write-queue
//     RAW forwarding and pluggable scheduling mechanisms,
//   - the paper's burst scheduling (with read preemption, write
//     piggybacking and the static threshold) plus the comparison
//     mechanisms: bank in-order, row-hit-first (Rixner), and Intel's
//     patented out-of-order scheduling,
//   - a trace-driven out-of-order CPU with L1/L2 caches and a front-side
//     bus, and synthetic workload profiles standing in for the 16 SPEC
//     CPU2000 benchmarks of the paper's evaluation.
//
// The quickest way in:
//
//	cfg := burstmem.DefaultConfig()
//	cfg.Instructions = 500_000
//	prof, _ := burstmem.BenchmarkByName("swim")
//	mech, _ := burstmem.MechanismByName("Burst_TH")
//	res, _ := burstmem.Run(cfg, prof, mech)
//	fmt.Printf("IPC %.3f, read latency %.1f cycles\n", res.IPC, res.ReadLatency)
//
// For controller-level experiments (no CPU model), build a
// memctrl-compatible configuration with ControllerConfig and submit
// accesses directly; see examples/controller_trace.
//
// This root package re-exports the stable surface of the internal
// packages; the experiment harness binaries (cmd/experiments, cmd/memsim)
// regenerate every table and figure of the paper.
package burstmem

import (
	"io"

	"burstmem/internal/dram"
	"burstmem/internal/memctrl"
	"burstmem/internal/sim"
	"burstmem/internal/trace"
	"burstmem/internal/workload"
)

// Core simulation types.
type (
	// Config assembles the simulated machine (Table 3 defaults via
	// DefaultConfig).
	Config = sim.Config
	// Result carries one simulation's measurements.
	Result = sim.Result
	// System is an assembled machine, steppable cycle by cycle.
	System = sim.System
	// Profile parameterizes a synthetic benchmark workload.
	Profile = workload.Profile
)

// Controller-level types, for building custom scheduling mechanisms or
// driving the memory controller directly.
type (
	// Mechanism is a pluggable access reordering policy.
	Mechanism = memctrl.Mechanism
	// MechanismFactory builds a Mechanism per channel.
	MechanismFactory = memctrl.Factory
	// Host is a mechanism's view of the controller.
	Host = memctrl.Host
	// Engine steps per-bank ongoing accesses through their transactions.
	Engine = memctrl.Engine
	// Access is one main-memory read or write.
	Access = memctrl.Access
	// AccessKind distinguishes reads from writes.
	AccessKind = memctrl.Kind
	// Controller is the full memory controller.
	Controller = memctrl.Controller
	// ControllerConfig describes the controller and DRAM organization.
	ControllerConfig = memctrl.Config
	// Timing holds SDRAM timing constraints in memory cycles.
	Timing = dram.Timing
	// RowOutcome classifies accesses as row hit/empty/conflict.
	RowOutcome = dram.RowOutcome
	// PowerParams holds DRAM energy/power coefficients (per rank).
	PowerParams = dram.PowerParams
	// PowerReport is a channel energy breakdown.
	PowerReport = dram.PowerReport
)

// Access kinds.
const (
	KindRead  = memctrl.KindRead
	KindWrite = memctrl.KindWrite
)

// Row outcomes.
const (
	RowHit      = dram.RowHit
	RowEmpty    = dram.RowEmpty
	RowConflict = dram.RowConflict
)

// Observability types (see internal/trace): a ring-buffered, zero-overhead-
// when-detached tracer over the DRAM command stream, access lifecycle and
// scheduler decisions, with per-interval derived metrics and Chrome
// trace_event export for Perfetto.
type (
	// Tracer records simulation events; attach with System.AttachTracer
	// or Controller.SetTracer.
	Tracer = trace.Tracer
	// TraceEvent is one fixed-size trace record.
	TraceEvent = trace.Event
	// TraceInterval aggregates one metrics window of a traced run.
	TraceInterval = trace.Interval
)

// NewTracer builds a tracer holding up to events ring entries and, when
// intervalCycles > 0, a per-interval metrics time series.
func NewTracer(events int, intervalCycles uint64) *Tracer {
	return trace.New(events, intervalCycles)
}

// WriteChromeTrace renders a traced run as Chrome trace_event JSON,
// loadable in ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, t *Tracer, label string) error {
	return trace.WriteChrome(w, t, label)
}

// RunSystem drives a caller-assembled System (e.g. one with a tracer
// attached) through warmup and the measurement window.
func RunSystem(cfg Config, sys *System, name string) (Result, error) {
	return sim.RunSystem(cfg, sys, name)
}

// BestThreshold is the paper's experimentally determined optimal write
// queue threshold (52 of a 64-entry write queue).
const BestThreshold = sim.BestThreshold

// DefaultConfig returns the paper's Table 3 baseline machine: 4 GHz 8-way
// CPU (196 ROB, 32 LSQ), 128 KB L1s, 2 MB L2, 800 MHz FSB, 4 GB DDR2
// PC2-6400 in 2 channels x 4 ranks x 4 banks, open page, page
// interleaving, 256-entry pool with 64 writes.
func DefaultConfig() Config { return sim.DefaultConfig() }

// DefaultControllerConfig returns the Table 3 memory controller alone.
func DefaultControllerConfig() ControllerConfig { return memctrl.DefaultConfig() }

// NewController builds a standalone memory controller running the given
// mechanism on every channel (for controller-level studies without the
// CPU model).
func NewController(cfg ControllerConfig, factory MechanismFactory) (*Controller, error) {
	return memctrl.New(cfg, factory)
}

// NewEngine builds a transaction engine for a custom mechanism; onColumn
// (optional) runs whenever an access's column transaction issues.
func NewEngine(h *Host, onColumn func(a *Access, now uint64)) *Engine {
	return memctrl.NewEngine(h, onColumn)
}

// Run executes one simulation to the configured instruction target.
func Run(cfg Config, prof Profile, factory MechanismFactory) (Result, error) {
	return sim.Run(cfg, prof, factory)
}

// NewSystem assembles a machine for cycle-by-cycle stepping.
func NewSystem(cfg Config, prof Profile, factory MechanismFactory) (*System, error) {
	return sim.NewSystem(cfg, prof, factory)
}

// MechanismNames lists the eight mechanisms of the paper's Table 4 in its
// order.
func MechanismNames() []string { return sim.MechanismNames() }

// MechanismByName resolves a mechanism name to its factory: a Table 4 name
// ("BkInOrder", "RowHit", "Intel", "Intel_RP", "Burst", "Burst_RP",
// "Burst_WP", "Burst_TH"), "Burst_TH<n>" for threshold n, the serial
// "InOrder" scheduler, or one of the burst variants "Burst_Naive",
// "Burst_DYN" and "Burst_SZ".
func MechanismByName(name string) (MechanismFactory, error) { return sim.MechanismByName(name) }

// Benchmarks returns the 16 built-in synthetic benchmark profiles in the
// paper's Figure 10 order.
func Benchmarks() []Profile { return workload.Profiles() }

// BenchmarkNames returns the benchmark names in Figure 10 order.
func BenchmarkNames() []string { return workload.Names() }

// BenchmarkByName returns the named built-in profile.
func BenchmarkByName(name string) (Profile, error) { return workload.ByName(name) }

// Generator produces the instruction stream a simulated core runs.
type Generator = workload.Generator

// Op is one instruction of a workload stream.
type Op = workload.Op

// ParseTrace reads a recorded trace file (format documented in
// internal/workload: `L addr`, `LD addr`, `S addr`, `N count` lines) into
// a replayable generator.
func ParseTrace(name string, r io.Reader) (Generator, error) {
	return workload.ParseTrace(name, r)
}

// WriteTrace records n ops from a generator in the trace file format.
func WriteTrace(w io.Writer, gen Generator, n int) error {
	return workload.WriteTrace(w, gen, n)
}

// RunGenerator executes a simulation over caller-supplied generators (one
// per core), e.g. parsed trace files.
func RunGenerator(cfg Config, name string, gens []Generator, factory MechanismFactory) (Result, error) {
	return sim.RunGenerator(cfg, name, gens, factory)
}

// DDR2Timing returns the paper's device: DDR2 PC2-6400, 5-5-5, BL8.
func DDR2Timing() Timing { return dram.DDR2_800() }

// DDRTiming returns the previous-generation DDR-400 device (2-2-2) and
// DDR3Timing the next-generation DDR3-1600 device (8-8-8), for the
// cross-generation scaling experiment of the paper's Section 6.
func DDRTiming() Timing { return dram.DDR_400() }

// DDR3Timing returns a DDR3-1600-class device (see DDRTiming).
func DDR3Timing() Timing { return dram.DDR3_1600() }

// DefaultPowerParams returns DDR2-800 per-rank energy coefficients for the
// DRAM power model.
func DefaultPowerParams() PowerParams { return dram.DefaultPowerParams() }
