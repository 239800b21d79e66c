package workload

import (
	"math"
	"testing"
)

func TestBuiltinProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 16 {
		t.Fatalf("%d profiles, want the paper's 16", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("ByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ByName("specjbb"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base, _ := ByName("swim")
	cases := []func(*Profile){
		func(p *Profile) { p.MemFraction = 1.5 },
		func(p *Profile) { p.StoreFraction = -0.1 },
		func(p *Profile) { p.StreamWeight = -1 },
		func(p *Profile) { p.StreamWeight, p.RandomWeight, p.ChaseWeight, p.LoopWeight = 0, 0, 0, 0 },
		func(p *Profile) { p.WorkingSet = 1024 },
		func(p *Profile) { p.Streams = 0 },
		func(p *Profile) { p.Burstiness = 2 },
		// NaN fails every comparison, so a range test written as
		// "x < 0 || x > 1" lets it through.
		func(p *Profile) { p.MemFraction = math.NaN() },
		func(p *Profile) { p.StoreFraction = math.NaN() },
		func(p *Profile) { p.Burstiness = math.NaN() },
		func(p *Profile) { p.ChaseWeight = math.NaN() },
		// New divides each weight by their total, and Inf/Inf is NaN.
		func(p *Profile) { p.ChaseWeight = math.Inf(1) },
	}
	for i, mutate := range cases {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
		if _, err := New(p); err == nil {
			t.Errorf("case %d: New accepted invalid profile", i)
		}
	}
}

// TestDeterminism: identical profiles yield identical streams.
func TestDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	a := MustNew(p)
	b := MustNew(p)
	for i := 0; i < 100000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at op %d", i)
		}
	}
}

// TestSeedChangesStream: a different seed produces a different stream.
func TestSeedChangesStream(t *testing.T) {
	p, _ := ByName("gcc")
	a := MustNew(p)
	p.Seed++
	b := MustNew(p)
	same := 0
	for i := 0; i < 10000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 9500 {
		t.Fatalf("streams nearly identical across seeds (%d/10000 equal)", same)
	}
}

// TestMemFractionHonored: the long-run memory-op fraction approximates the
// profile's MemFraction despite phase modulation.
func TestMemFractionHonored(t *testing.T) {
	for _, name := range []string{"swim", "mcf", "gzip"} {
		p, _ := ByName(name)
		g := MustNew(p)
		const n = 400000
		mem := 0
		for i := 0; i < n; i++ {
			if g.Next().Type != OpNonMem {
				mem++
			}
		}
		got := float64(mem) / n
		if got < p.MemFraction*0.85 || got > p.MemFraction*1.15 {
			t.Errorf("%s: memory fraction %.3f, profile says %.3f", name, got, p.MemFraction)
		}
	}
}

// TestStoreFraction: store share of memory ops tracks the profile.
func TestStoreFraction(t *testing.T) {
	p, _ := ByName("swim")
	g := MustNew(p)
	var loads, stores int
	for i := 0; i < 400000; i++ {
		switch g.Next().Type {
		case OpLoad:
			loads++
		case OpStore:
			stores++
		}
	}
	got := float64(stores) / float64(loads+stores)
	if got < p.StoreFraction*0.6 || got > p.StoreFraction*1.4 {
		t.Errorf("store fraction %.3f, profile says %.3f", got, p.StoreFraction)
	}
}

// TestChaseDependencies: mcf (chase-heavy) emits dependent loads; swim
// (stream-only) emits none.
func TestChaseDependencies(t *testing.T) {
	count := func(name string) int {
		p, _ := ByName(name)
		g := MustNew(p)
		dep := 0
		for i := 0; i < 100000; i++ {
			if g.Next().DepOnPrevLoad {
				dep++
			}
		}
		return dep
	}
	if got := count("mcf"); got == 0 {
		t.Error("mcf produced no dependent loads")
	}
	if got := count("swim"); got != 0 {
		t.Errorf("swim produced %d dependent loads, want 0", got)
	}
}

// TestAddressesWithinFootprint: all generated addresses stay inside the
// working set plus the loop region.
func TestAddressesWithinFootprint(t *testing.T) {
	p, _ := ByName("gcc")
	g := MustNew(p)
	limit := p.WorkingSet + loopBytes
	for i := 0; i < 200000; i++ {
		op := g.Next()
		if op.Type == OpNonMem {
			continue
		}
		if op.Addr >= limit {
			t.Fatalf("op %d address %#x outside footprint %#x", i, op.Addr, limit)
		}
	}
}

// TestStreamSpatialLocality: consecutive accesses of one stream advance by
// one word, so a line is touched multiple times before moving on.
func TestStreamSpatialLocality(t *testing.T) {
	p := Profile{
		Name: "streams", MemFraction: 1, StoreFraction: 0,
		StreamWeight: 1, Streams: 1, WorkingSet: 64 << 20, Seed: 7,
	}
	g := MustNew(p)
	prev := g.Next().Addr
	for i := 0; i < 1000; i++ {
		cur := g.Next().Addr
		if cur != prev+wordBytes && cur != 0 { // wraparound allowed
			t.Fatalf("stream stride broken: %#x -> %#x", prev, cur)
		}
		prev = cur
	}
}

// TestBurstinessPhases: with high burstiness the stream alternates dense
// and sparse memory phases.
func TestBurstinessPhases(t *testing.T) {
	p := Profile{
		Name: "bursty", MemFraction: 0.3, StoreFraction: 0.2,
		StreamWeight: 1, Streams: 2, WorkingSet: 64 << 20,
		Burstiness: 0.9, Seed: 9,
	}
	g := MustNew(p)
	// Measure windowed memory fraction; expect high variance across
	// windows when bursty.
	const win = 500
	var fracs []float64
	for w := 0; w < 100; w++ {
		mem := 0
		for i := 0; i < win; i++ {
			if g.Next().Type != OpNonMem {
				mem++
			}
		}
		fracs = append(fracs, float64(mem)/win)
	}
	lo, hi := 1.0, 0.0
	for _, f := range fracs {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi-lo < 0.3 {
		t.Errorf("bursty stream too smooth: window fractions span [%.2f, %.2f]", lo, hi)
	}
}

func TestOpTypeString(t *testing.T) {
	if OpNonMem.String() != "nonmem" || OpLoad.String() != "load" || OpStore.String() != "store" {
		t.Fatal("OpType.String broken")
	}
}
