package burstmem

import (
	"bytes"
	"math/bits"
	"testing"

	"burstmem/internal/workload"
)

// workloadNew builds a generator from a profile (test helper bridging the
// internal constructor).
func workloadNew(p Profile) (Generator, error) { return workload.New(p) }

// TestPublicSurface exercises the re-exported API end to end, the way the
// examples and a downstream user would.
func TestPublicSurface(t *testing.T) {
	if len(BenchmarkNames()) != 16 {
		t.Fatalf("want the paper's 16 benchmarks, got %d", len(BenchmarkNames()))
	}
	if len(Benchmarks()) != 16 {
		t.Fatal("Benchmarks() disagrees with BenchmarkNames()")
	}
	for _, name := range MechanismNames() {
		if _, err := MechanismByName(name); err != nil {
			t.Errorf("MechanismByName(%q): %v", name, err)
		}
	}
	if BestThreshold != 52 {
		t.Fatalf("BestThreshold = %d, paper says 52", BestThreshold)
	}
	tm := DDR2Timing()
	if tm.TCL != 5 || tm.TRCD != 5 || tm.TRP != 5 {
		t.Fatalf("DDR2 timing not 5-5-5: %+v", tm)
	}

	cfg := DefaultConfig()
	cfg.WarmupInstructions = 5_000
	cfg.Instructions = 10_000
	prof, err := BenchmarkByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	mech, err := MechanismByName("Burst_TH")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, prof, mech)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatalf("IPC %v", res.IPC)
	}
}

// TestCustomMechanismViaPublicAPI builds a minimal mechanism with the
// exported types only (mirrors examples/custom_mechanism).
func TestCustomMechanismViaPublicAPI(t *testing.T) {
	newFifo := MechanismFactory(func(h *Host) Mechanism {
		return &fifoMech{host: h, engine: NewEngine(h, nil)}
	})
	ctrl, err := NewController(DefaultControllerConfig(), newFifo)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Tick(0)
	completed := 0
	for i := 0; i < 8; i++ {
		if _, ok := ctrl.Submit(KindRead, uint64(i)*4096, func(a *Access, now uint64) {
			completed++
		}); !ok {
			t.Fatal("submit rejected")
		}
	}
	for cyc := uint64(1); !ctrl.Drained() && cyc < 100000; cyc++ {
		ctrl.Tick(cyc)
	}
	if completed != 8 {
		t.Fatalf("completed %d of 8", completed)
	}
}

// fifoMech is the custom mechanism used by TestCustomMechanismViaPublicAPI.
type fifoMech struct {
	host   *Host
	engine *Engine
	q      []*Access
}

func (m *fifoMech) Name() string                  { return "fifo" }
func (m *fifoMech) ForwardsWrites() bool          { return true }
func (m *fifoMech) Pending() (int, int)           { return m.host.Pending() }
func (m *fifoMech) Enqueue(a *Access, now uint64) { m.q = append(m.q, a) }

func (m *fifoMech) Tick(now uint64) {
	if len(m.q) > 0 {
		a := m.q[0]
		if m.engine.Ongoing(a.FlatBank(m.engine.BankMap())) == nil {
			m.engine.SetOngoing(a)
			m.q = m.q[1:]
		}
	}
	if cl, any := m.engine.Unblocked(now); any {
		m.engine.Issue(bits.TrailingZeros64(cl.All()), now)
	}
}

// TestTraceRoundTripViaPublicAPI records a trace and replays it through a
// full simulation.
func TestTraceRoundTripViaPublicAPI(t *testing.T) {
	prof, err := BenchmarkByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workloadNew(prof)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, gen, 50_000); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace("recorded", &buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 5_000
	cfg.Instructions = 10_000
	mech, err := MechanismByName("Burst_TH")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGenerator(cfg, "recorded", []Generator{parsed}, mech)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Benchmark != "recorded" {
		t.Fatalf("trace run result: %+v", res.IPC)
	}
}

// TestPowerInResult: simulations report DRAM energy.
func TestPowerInResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 5_000
	cfg.Instructions = 10_000
	prof, _ := BenchmarkByName("swim")
	mech, _ := MechanismByName("Burst_TH")
	res, err := Run(cfg, prof, mech)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyPerAccessNJ <= 0 || res.AvgMemPowerW <= 0 {
		t.Fatalf("power results missing: %v nJ, %v W", res.EnergyPerAccessNJ, res.AvgMemPowerW)
	}
}
