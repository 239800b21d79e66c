// Package bench is the repository benchmark: a fixed set of simulation
// workloads, timed end to end on the host, checked for bit-identical
// results, and optionally replayed under a per-layer timing ledger.
//
// cmd/burstbench runs one workload per process and prints every metric by
// name; README.md documents the workloads, metrics and bounds.
package bench

import (
	"fmt"

	"burstmem/internal/memctrl"
	"burstmem/internal/sim"
	"burstmem/internal/workload"
)

// Workload is one benchmark input: a grid of (benchmark profile,
// mechanism) simulations at a fixed size. One rep runs every job once.
type Workload struct {
	Name         string
	Benches      []string
	Mechs        []string
	Warmup       uint64
	Instructions uint64
	// Fig10 marks the Figure 10 grid: every profile keeps its built-in
	// seed, so every run can check the grid's rows against
	// experiments_output.txt, and the run's seed permutes the order the
	// jobs run in instead.
	Fig10 bool
}

// fig10Benches is the Figure 10 subset the grid runs: two streaming codes
// with heavy write streams (swim, lucas — 42% stores), the pointer chaser
// (mcf), a mixed integer code (gcc) and the sparse compute code (apsi).
var fig10Benches = []string{"swim", "mcf", "gcc", "apsi", "lucas"}

// Workloads lists the benchmark's workloads in report order. The single
// simulations are sized to about a seventh of a host second per rep on a
// quiet 2-CPU x86 host, so a 20 s run reports the median of 70-125 reps,
// each timed against its own host-speed probe (reps three times as long
// spread three times as widely from run to run);
// the grid keeps the 200k/200k size and the profile seeds at which its
// rows match experiments_output.txt, and its one rep per run sums 40 jobs.
var Workloads = []Workload{
	// Saturated controller with a dedicated store stream beside the reads:
	// scheduler, write-queue and CPU/cache costs dominate.
	{Name: "swim-stream", Benches: []string{"swim"}, Mechs: []string{"Burst_TH"},
		Warmup: 100_000, Instructions: 100_000},
	// Dependent pointer-chase loads with shallow queues: the L2 and its
	// MSHR lookups weigh more here than anywhere else.
	{Name: "mcf-chase", Benches: []string{"mcf"}, Mechs: []string{"Burst_TH"},
		Warmup: 100_000, Instructions: 100_000},
	// 6% memory ops: skip logic and the workload generator dominate.
	{Name: "apsi-sparse", Benches: []string{"apsi"}, Mechs: []string{"Burst_TH"},
		Warmup: 100_000, Instructions: 1_000_000},
	// Every Figure 10 mechanism on five profiles: setup and every
	// scheduler show. End-to-end reps run its 40 jobs one after another,
	// traced reps on a pool of nproc workers.
	{Name: "fig10-grid", Benches: fig10Benches, Mechs: sim.MechanismNames(),
		Warmup: 200_000, Instructions: 200_000, Fig10: true},
}

// WorkloadByName looks a workload up.
func WorkloadByName(name string) (Workload, error) {
	var names []string
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q (known: %v)", name, names)
}

// Job is one simulation of a workload.
type Job struct {
	Bench, Mech string
	Profile     workload.Profile
	Factory     memctrl.Factory
}

// Key names the job in digests and reports.
func (j Job) Key() string { return j.Bench + "/" + j.Mech }

// seedMix spreads a benchmark seed over the profile seed space.
const seedMix = 0x9E3779B97F4A7C15

// profileSeed is the seed the workload's profiles are perturbed with at
// benchmark seed seed: seed itself, or 0 for the Figure 10 grid.
func (w Workload) profileSeed(seed uint64) uint64 {
	if w.Fig10 {
		return 0
	}
	return seed
}

// Jobs expands the workload into its simulations, bench-major. Profile
// seed 0 keeps every profile's built-in seed (the seed
// experiments_output.txt was generated with); any other perturbs each
// profile's seed. The Figure 10 grid runs its jobs in an order shuffled by
// any seed but 0.
func (w Workload) Jobs(seed uint64) ([]Job, error) {
	var jobs []Job
	for _, b := range w.Benches {
		prof, err := workload.ByName(b)
		if err != nil {
			return nil, err
		}
		prof.Seed ^= w.profileSeed(seed) * seedMix
		for _, m := range w.Mechs {
			f, err := sim.MechanismByName(m)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, Job{Bench: b, Mech: m, Profile: prof, Factory: f})
		}
	}
	if w.Fig10 && seed != 0 {
		x := seed * seedMix // xorshift64: nonzero for every seed but 0
		for i := len(jobs) - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i+1))
			jobs[i], jobs[j] = jobs[j], jobs[i]
		}
	}
	return jobs, nil
}

// Config is the machine every job of the workload simulates.
func (w Workload) Config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstructions = w.Warmup
	cfg.Instructions = w.Instructions
	return cfg
}
