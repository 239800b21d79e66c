// Package workload generates the deterministic synthetic instruction
// streams the simulator runs in place of SPEC CPU2000 reference traces
// (see DESIGN.md, substitutions).
//
// A stream is a sequence of Ops: non-memory instructions, loads and stores.
// Streams are produced by composing four kernels that span the access
// patterns the paper's benchmarks exhibit:
//
//   - stream: concurrent sequential array walks (swim, lucas, applu —
//     high spatial locality, deep row hits, heavy write streams),
//   - random: uniform accesses over a large working set (low locality),
//   - chase: dependent loads, each address derived from the previous
//     load's value (mcf, parser — latency-bound, low MLP),
//   - loop: a small cache-resident footprint (compute phases that filter
//     out at the caches).
//
// Everything is seeded; the same profile always yields the same trace.
package workload

import (
	"fmt"
	"math"
	"sort"

	"burstmem/internal/xrand"
)

// OpType classifies an instruction.
type OpType uint8

// Instruction classes produced by generators.
const (
	OpNonMem OpType = iota
	OpLoad
	OpStore
)

// String implements fmt.Stringer.
func (t OpType) String() string {
	switch t {
	case OpNonMem:
		return "nonmem"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	}
	return fmt.Sprintf("OpType(%d)", uint8(t))
}

// Op is one instruction of the synthetic trace.
type Op struct {
	Type OpType
	Addr uint64
	// DepOnPrevLoad marks a load whose address depends on the previous
	// load's data (pointer chasing): it cannot issue until that load
	// completes.
	DepOnPrevLoad bool
}

// Generator produces an endless deterministic instruction stream.
type Generator interface {
	Name() string
	Next() Op
}

// Profile parameterizes a synthetic benchmark.
type Profile struct {
	Name string

	// MemFraction is the fraction of instructions that access memory.
	MemFraction float64
	// StoreFraction is the store share of memory instructions.
	StoreFraction float64

	// Kernel mix weights (need not sum to 1; they are normalized).
	StreamWeight float64
	RandomWeight float64
	ChaseWeight  float64
	LoopWeight   float64

	// Streams is the number of concurrent sequential streams.
	Streams int
	// StrideBytes is the stream advance per access. Word-sized strides
	// (8, the default when 0) touch each cache line eight times, as in
	// scans of contiguous arrays; line-sized strides (64) model
	// higher-dimensional array sweeps where every access misses — the
	// pattern that fills the controller with outstanding reads (paper
	// Fig. 8 shows up to 35 for swim).
	StrideBytes int
	// WorkingSet is the footprint, in bytes, of the random/chase/stream
	// regions.
	WorkingSet uint64
	// Burstiness in [0,1] modulates arrival clustering: real programs
	// alternate memory-intensive phases (loop bodies sweeping arrays)
	// with compute phases, so misses arrive in clumps that build up the
	// controller queues access reordering works on. 0 produces a smooth
	// Bernoulli arrival process; higher values concentrate the same
	// average memory fraction into denser phases.
	Burstiness float64
	// Seed drives all random choices for this profile.
	Seed uint64
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	// Each range test is written so that NaN, which fails every
	// comparison, fails it too.
	if !(p.MemFraction >= 0 && p.MemFraction <= 1) {
		return fmt.Errorf("workload %s: MemFraction %v out of [0,1]", p.Name, p.MemFraction)
	}
	if !(p.StoreFraction >= 0 && p.StoreFraction <= 1) {
		return fmt.Errorf("workload %s: StoreFraction %v out of [0,1]", p.Name, p.StoreFraction)
	}
	if !(p.StreamWeight >= 0 && p.RandomWeight >= 0 && p.ChaseWeight >= 0 && p.LoopWeight >= 0) {
		return fmt.Errorf("workload %s: negative or NaN kernel weight", p.Name)
	}
	total := p.StreamWeight + p.RandomWeight + p.ChaseWeight + p.LoopWeight
	if total <= 0 {
		return fmt.Errorf("workload %s: all kernel weights zero", p.Name)
	}
	if math.IsInf(total, 1) {
		// New divides each weight by the total, and Inf/Inf is NaN.
		return fmt.Errorf("workload %s: infinite kernel weight", p.Name)
	}
	if p.WorkingSet < 1<<20 {
		return fmt.Errorf("workload %s: working set %d too small", p.Name, p.WorkingSet)
	}
	if p.Streams < 1 {
		return fmt.Errorf("workload %s: need at least one stream", p.Name)
	}
	if !(p.Burstiness >= 0 && p.Burstiness <= 1) {
		return fmt.Errorf("workload %s: Burstiness %v out of [0,1]", p.Name, p.Burstiness)
	}
	if p.StrideBytes < 0 {
		return fmt.Errorf("workload %s: negative stride", p.Name)
	}
	return nil
}

const (
	lineBytes  = 64
	wordBytes  = 8       // sequential kernels advance by words, so a line is touched 8 times
	loopBytes  = 1 << 16 // cache-resident loop footprint
	chaseAlign = lineBytes
)

// generator implements Generator for a Profile.
type generator struct {
	p   Profile
	rng *xrand.RNG

	// cumulative kernel weights for selection
	wStream, wRandom, wChase float64 // wLoop implied

	streamPos  []uint64 // current address per stream
	streamBase []uint64
	streamSpan uint64
	nextStream int

	chasePos uint64
	loopPos  uint64
	loopBase uint64

	randomBase uint64

	// phase state for bursty arrivals
	memFracHi   float64 // memory fraction inside a memory phase
	memFracLo   float64 // memory fraction inside a compute phase
	memPhaseLen int     // mean ops per memory phase
	cmpPhaseLen int     // mean ops per compute phase
	phaseOps    int     // remaining ops in the current phase
	inMemPhase  bool
}

// New builds a generator for the profile. The profile must validate.
func New(p Profile) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &generator{p: p, rng: xrand.New(p.Seed)}
	total := p.StreamWeight + p.RandomWeight + p.ChaseWeight + p.LoopWeight
	g.wStream = p.StreamWeight / total
	g.wRandom = g.wStream + p.RandomWeight/total
	g.wChase = g.wRandom + p.ChaseWeight/total

	// Carve the working set: streams get the bottom half, random/chase
	// the top half, the loop a small region of its own.
	g.streamSpan = p.WorkingSet / 2 / uint64(p.Streams)
	if g.streamSpan == 0 {
		g.streamSpan = lineBytes
	}
	for i := 0; i < p.Streams; i++ {
		base := uint64(i) * g.streamSpan
		g.streamBase = append(g.streamBase, base)
		g.streamPos = append(g.streamPos, base)
	}
	g.randomBase = p.WorkingSet / 2
	g.loopBase = p.WorkingSet
	g.chasePos = g.randomBase

	// Phase modulation: concentrate the average memory fraction into
	// denser memory phases, preserving the overall mean. With hi the
	// in-phase fraction and lo the compute-phase fraction, the share of
	// ops spent in memory phases is f = (avg-lo)/(hi-lo).
	g.memFracHi = p.MemFraction + (0.92-p.MemFraction)*p.Burstiness
	g.memFracLo = p.MemFraction * (1 - p.Burstiness)
	g.memPhaseLen = 600
	if g.memFracHi > g.memFracLo {
		f := (p.MemFraction - g.memFracLo) / (g.memFracHi - g.memFracLo)
		if f > 0 && f < 1 {
			g.cmpPhaseLen = int(float64(g.memPhaseLen) * (1 - f) / f)
		}
	}
	g.inMemPhase = true
	g.phaseOps = g.memPhaseLen
	return g, nil
}

// MustNew is New, panicking on invalid profiles (for table-driven setup of
// the built-in profiles, which are validated by tests).
func MustNew(p Profile) Generator {
	g, err := New(p)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Generator.
func (g *generator) Name() string { return g.p.Name }

// Next implements Generator.
func (g *generator) Next() Op {
	frac := g.p.MemFraction
	if g.cmpPhaseLen > 0 {
		if g.phaseOps <= 0 {
			// Geometric-ish phase lengths around the configured means.
			g.inMemPhase = !g.inMemPhase
			mean := g.memPhaseLen
			if !g.inMemPhase {
				mean = g.cmpPhaseLen
			}
			g.phaseOps = mean/2 + g.rng.Intn(mean+1)
		}
		g.phaseOps--
		if g.inMemPhase {
			frac = g.memFracHi
		} else {
			frac = g.memFracLo
		}
	}
	if !g.rng.Bool(frac) {
		return Op{Type: OpNonMem}
	}
	k := g.rng.Float64()
	switch {
	case k < g.wStream:
		return g.stream()
	case k < g.wRandom:
		return g.random()
	case k < g.wChase:
		return g.chase()
	default:
		return g.loop()
	}
}

func (g *generator) kind() OpType {
	if g.rng.Bool(g.p.StoreFraction) {
		return OpStore
	}
	return OpLoad
}

// stream walks the next stream sequentially at word granularity (eight
// touches per cache line, like a real array walk); streams rotate round
// robin so several rows stay live at once.
func (g *generator) stream() Op {
	i := g.nextStream
	g.nextStream = (g.nextStream + 1) % len(g.streamPos)
	addr := g.streamPos[i]
	stride := uint64(g.p.StrideBytes)
	if stride == 0 {
		stride = wordBytes
	}
	g.streamPos[i] += stride
	if g.streamPos[i] >= g.streamBase[i]+g.streamSpan {
		g.streamPos[i] = g.streamBase[i]
	}
	// Dedicate the last stream to stores when stores are configured, so
	// write traffic has the spatial locality write piggybacking exploits.
	t := OpLoad
	if g.p.StoreFraction > 0 && i == len(g.streamPos)-1 {
		t = OpStore
	} else if g.rng.Bool(g.p.StoreFraction / 2) {
		t = OpStore
	}
	return Op{Type: t, Addr: addr}
}

// random picks a uniform line in the upper half of the working set.
func (g *generator) random() Op {
	span := g.p.WorkingSet / 2
	addr := g.randomBase + g.rng.Uint64n(span/lineBytes)*lineBytes
	return Op{Type: g.kind(), Addr: addr}
}

// chase emits a dependent load: the next address is a hash of the current
// one (standing in for following a pointer), so consecutive chase loads
// serialize.
func (g *generator) chase() Op {
	span := g.p.WorkingSet / 2
	h := g.chasePos*0x9E3779B97F4A7C15 + 0x7F4A7C15
	h ^= h >> 29
	g.chasePos = g.randomBase + (h % (span / chaseAlign) * chaseAlign)
	return Op{Type: OpLoad, Addr: g.chasePos, DepOnPrevLoad: true}
}

// loop walks a small footprint that stays cache resident.
func (g *generator) loop() Op {
	addr := g.loopBase + g.loopPos
	g.loopPos += wordBytes
	if g.loopPos >= loopBytes {
		g.loopPos = 0
	}
	return Op{Type: g.kind(), Addr: addr}
}

// profiles are the 16 SPEC CPU2000 benchmarks of the paper's Figure 10,
// parameterized to reproduce each benchmark's qualitative stream class:
// streaming codes (swim, lucas, applu, mgrid, art) expose deep row
// locality and heavy write streams; latency-bound codes (mcf, parser)
// pointer-chase with low MLP; the integer codes mix moderate-locality
// traffic with cache-resident compute.
var profiles = []Profile{
	{Name: "gzip", MemFraction: 0.20, StoreFraction: 0.30, StreamWeight: 0.4, RandomWeight: 0.1, ChaseWeight: 0.0, LoopWeight: 0.5, Streams: 2, WorkingSet: 192 << 20, Burstiness: 0.85, Seed: 101},
	{Name: "gcc", MemFraction: 0.32, StoreFraction: 0.45, StreamWeight: 0.45, RandomWeight: 0.2, ChaseWeight: 0.05, LoopWeight: 0.3, Streams: 3, WorkingSet: 256 << 20, Burstiness: 0.7, Seed: 102},
	{Name: "mcf", MemFraction: 0.36, StoreFraction: 0.12, StreamWeight: 0.05, RandomWeight: 0.25, ChaseWeight: 0.6, LoopWeight: 0.1, Streams: 1, WorkingSet: 512 << 20, Burstiness: 0.5, Seed: 103},
	{Name: "parser", MemFraction: 0.30, StoreFraction: 0.15, StreamWeight: 0.1, RandomWeight: 0.3, ChaseWeight: 0.45, LoopWeight: 0.15, Streams: 1, WorkingSet: 256 << 20, Burstiness: 0.6, Seed: 104},
	{Name: "perlbmk", MemFraction: 0.30, StoreFraction: 0.25, StreamWeight: 0.1, RandomWeight: 0.4, ChaseWeight: 0.3, LoopWeight: 0.2, Streams: 2, WorkingSet: 256 << 20, Burstiness: 0.7, Seed: 105},
	{Name: "gap", MemFraction: 0.30, StoreFraction: 0.30, StreamWeight: 0.45, RandomWeight: 0.2, ChaseWeight: 0.05, LoopWeight: 0.3, Streams: 2, WorkingSet: 192 << 20, Burstiness: 0.7, Seed: 106},
	{Name: "bzip2", MemFraction: 0.30, StoreFraction: 0.32, StreamWeight: 0.45, RandomWeight: 0.15, ChaseWeight: 0.0, LoopWeight: 0.4, Streams: 2, WorkingSet: 192 << 20, Burstiness: 0.75, Seed: 107},
	{Name: "apsi", MemFraction: 0.06, StoreFraction: 0.30, StreamWeight: 0.55, RandomWeight: 0.1, ChaseWeight: 0.0, LoopWeight: 0.35, StrideBytes: 32, Streams: 3, WorkingSet: 192 << 20, Burstiness: 0.7, Seed: 108},
	{Name: "wupwise", MemFraction: 0.14, StoreFraction: 0.28, StreamWeight: 0.55, RandomWeight: 0.1, ChaseWeight: 0.0, LoopWeight: 0.35, StrideBytes: 32, Streams: 3, WorkingSet: 256 << 20, Burstiness: 0.5, Seed: 109},
	{Name: "mgrid", MemFraction: 0.10, StoreFraction: 0.30, StreamWeight: 0.8, RandomWeight: 0.05, ChaseWeight: 0.0, LoopWeight: 0.15, StrideBytes: 64, Streams: 4, WorkingSet: 384 << 20, Burstiness: 0.65, Seed: 110},
	{Name: "swim", MemFraction: 0.22, StoreFraction: 0.35, StreamWeight: 0.85, RandomWeight: 0.03, ChaseWeight: 0.0, LoopWeight: 0.12, StrideBytes: 64, Streams: 5, WorkingSet: 512 << 20, Burstiness: 0.0, Seed: 111},
	{Name: "applu", MemFraction: 0.10, StoreFraction: 0.32, StreamWeight: 0.8, RandomWeight: 0.05, ChaseWeight: 0.0, LoopWeight: 0.15, StrideBytes: 64, Streams: 4, WorkingSet: 384 << 20, Burstiness: 0.65, Seed: 112},
	{Name: "mesa", MemFraction: 0.28, StoreFraction: 0.30, StreamWeight: 0.4, RandomWeight: 0.2, ChaseWeight: 0.05, LoopWeight: 0.35, Streams: 2, WorkingSet: 192 << 20, Burstiness: 0.7, Seed: 113},
	{Name: "art", MemFraction: 0.14, StoreFraction: 0.18, StreamWeight: 0.7, RandomWeight: 0.15, ChaseWeight: 0.0, LoopWeight: 0.15, StrideBytes: 64, Streams: 3, WorkingSet: 256 << 20, Burstiness: 0.4, Seed: 114},
	{Name: "facerec", MemFraction: 0.10, StoreFraction: 0.15, StreamWeight: 0.45, RandomWeight: 0.15, ChaseWeight: 0.25, LoopWeight: 0.15, StrideBytes: 64, Streams: 2, WorkingSet: 256 << 20, Burstiness: 0.6, Seed: 115},
	{Name: "lucas", MemFraction: 0.10, StoreFraction: 0.42, StreamWeight: 0.8, RandomWeight: 0.05, ChaseWeight: 0.0, LoopWeight: 0.15, StrideBytes: 64, Streams: 3, WorkingSet: 384 << 20, Burstiness: 0.65, Seed: 116},
}

// Profiles returns the 16 built-in benchmark profiles in the paper's
// Figure 10 order.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// Names returns the benchmark names, sorted as in Figure 10.
func Names() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// ByName returns the named built-in profile.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	available := Names()
	sort.Strings(available)
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q (available: %v)", name, available)
}
