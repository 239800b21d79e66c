// The paper's tables and figures come from cmd/experiments, over every
// profile (`experiments -exp all -n 40000 -warmup 20000` prints them in
// miniature). The benchmark here measures the simulator itself.
package burstmem

import (
	"testing"

	"burstmem/internal/sim"
	"burstmem/internal/workload"
)

// BenchmarkSimThroughput measures simulator performance itself: simulated
// memory cycles per wall-clock second on full-machine runs, across a
// memory-intensive streaming profile (swim), a pointer-chasing profile
// (mcf) and a compute-leaning profile (gcc). The -benchmem numbers cover
// the whole iteration, NewSystem setup included; the steady-state
// allocation tests in internal/sim hold the loop itself to zero
// allocations. Regressions are judged by the repository benchmark instead
// (bench/run.sh, compared same-host by bench/ab.sh).
func BenchmarkSimThroughput(b *testing.B) {
	cases := []struct{ bench, mech string }{
		{"swim", "Burst_TH"},
		{"swim", "BkInOrder"},
		{"mcf", "Burst_TH"},
		{"gcc", "Burst_TH"},
	}
	// Each iteration simulates 20k warmup and 40k measured instructions.
	cfg := sim.DefaultConfig()
	cfg.WarmupInstructions = 20_000
	cfg.Instructions = 40_000
	for _, tc := range cases {
		b.Run(tc.bench+"/"+tc.mech, func(b *testing.B) {
			prof, err := workload.ByName(tc.bench)
			if err != nil {
				b.Fatal(err)
			}
			factory, err := sim.MechanismByName(tc.mech)
			if err != nil {
				b.Fatal(err)
			}
			var simulated uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := sim.NewSystem(cfg, prof, factory)
				if err != nil {
					b.Fatal(err)
				}
				target := cfg.WarmupInstructions + cfg.Instructions
				for sys.MinRetired() < target {
					sys.FastForward()
				}
				simulated += sys.MemCycle()
			}
			b.StopTimer()
			b.ReportMetric(float64(simulated)/b.Elapsed().Seconds(), "simcycles/s")
		})
	}
}
