package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"burstmem/internal/cache"
	"burstmem/internal/cpu"
	"burstmem/internal/memctrl"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from full-size runs at seeds 0 and 7")

// tiny shrinks a workload so one rep takes milliseconds. The committed
// digests and the Figure 10 rows hold only at full size, so the tiny
// workload has a name with no digests and no Figure 10 check.
func tiny(w Workload) Workload {
	w.Name += "-tiny"
	w.Warmup, w.Instructions = 2_000, 5_000
	w.Fig10 = false
	return w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsAtTinySize runs every workload untraced and traced. Each
// run checks every simulation against the first untraced rep, so a
// passing traced run proves the ledger-wrapped machine reproduces the
// untraced Result field for field. Every emitted metric must be declared
// in BENCHMARK.json with its unit, and every declared one emitted.
func TestWorkloadsAtTinySize(t *testing.T) {
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				res, problems, err := Run(tiny(w), Options{Seed: 3, Trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, problems)
				}
				declared := spec.EndToEnd
				if trace {
					declared = spec.PerLayer
				}
				want := make(map[string]string, len(declared))
				for _, m := range declared {
					want[m.Name] = m.Unit
				}
				for name, m := range res.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q does not match %s", name, metricName)
					}
					unit, ok := want[name]
					switch {
					case !ok:
						t.Errorf("metric %q is not declared in BENCHMARK.json", name)
					case unit != m.Unit:
						t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %q = %v", name, m.Value)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("declared metric %q not emitted", name)
					}
				}
				if trace {
					var sum float64
					for l := layerID(0); l < numLayers; l++ {
						sum += res.Metrics[l.String()+".self_share"].Value
					}
					if math.Abs(sum-1) > 0.01 {
						t.Errorf("layer self-shares sum to %v, want 1 ± 0.01", sum)
					}
				}
			})
		}
	}
}

// TestWrappersForwardOptionalPorts: the CPU and the controller look for
// optional interfaces on their ports; a wrapper that hid them would send
// the traced machine down a different code path.
func TestWrappersForwardOptionalPorts(t *testing.T) {
	var port cpu.Mem = &timedPort{}
	if _, ok := port.(interface {
		AccessLoad(addr uint64, mayAllocate bool, done func()) cache.Result
	}); !ok {
		t.Error("timedPort hides the fused AccessLoad port")
	}
	if _, ok := port.(interface{ WouldAllocate(addr uint64) bool }); !ok {
		t.Error("timedPort hides WouldAllocate")
	}
	var mech memctrl.Mechanism = &timedMech{}
	if _, ok := mech.(memctrl.EventHinter); !ok {
		t.Error("timedMech hides memctrl.EventHinter")
	}
	if _, ok := mech.(memctrl.RankPrewarmer); !ok {
		t.Error("timedMech hides memctrl.RankPrewarmer")
	}
}

// TestHostProbeAllocatesNothing: probes run inside the timed passes, whose
// allocations alloc_mib reports, so a probe must allocate nothing.
func TestHostProbeAllocatesNothing(t *testing.T) {
	p := newHostProbe()
	if n := testing.AllocsPerRun(3, func() { p.time() }); n != 0 {
		t.Errorf("a host probe allocates %v times", n)
	}
	if got := scale(3*time.Second, 2*probeRef); got != 1500*time.Millisecond {
		t.Errorf("3 s after a probe twice as slow as the reference scales to %v, want 1.5 s", got)
	}
}

// TestProvenanceSchema pins the provenance block's fields and checks that
// a document with a field the schema lacks is rejected.
func TestProvenanceSchema(t *testing.T) {
	w := Workloads[len(Workloads)-1]
	p := NewProvenance(w, Options{Seed: 7, Seconds: 10})
	if p.NProc != runtime.NumCPU() || p.GoVersion != runtime.Version() || p.BenchVersion != Version ||
		p.Params.Workers < 1 || p.Params.Warmup != w.Warmup || p.VCSRevision == "" || p.VCSModified == "" {
		t.Errorf("provenance does not describe the run: %+v", p)
	}
	doc, err := json.Marshal(Output{Provenance: p, Result: Result{Metrics: map[string]Metric{}}})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]map[string]json.RawMessage
	if err := json.Unmarshal(doc, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw["provenance"] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pinned := "bench_version go_version gomaxprocs nproc params seconds seed trace vcs_modified vcs_revision workload"
	if got := strings.Join(keys, " "); got != pinned {
		t.Errorf("provenance keys\n got  %s\n want %s", got, pinned)
	}
	decode := func(s string) error {
		dec := json.NewDecoder(strings.NewReader(s))
		dec.DisallowUnknownFields()
		var o Output
		return dec.Decode(&o)
	}
	if err := decode(string(doc)); err != nil {
		t.Errorf("round trip: %v", err)
	}
	if err := decode(`{"provenance": {"bench_version": 1, "hostname": "x"}}`); err == nil {
		t.Error("a provenance block with an unknown field decoded without error")
	}
}

// TestQuantileMatchesPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := Quantile(xs, q); got != want {
			t.Errorf("Quantile(1..10, %v) = %v, want %v", q, got, want)
		}
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median(3,1,2) = %v", got)
	}
}

// TestFig10RowsFormat rebuilds cycle counts from the reference rows and
// checks that fig10Rows prints those rows byte for byte.
func TestFig10RowsFormat(t *testing.T) {
	ref, err := referenceFig10Rows("../experiments_output.txt", fig10Benches)
	if err != nil {
		t.Fatal(err)
	}
	cycles := make(map[string]uint64)
	for _, b := range fig10Benches {
		cycles[b+"/BkInOrder"] = 1000
		for i, cell := range strings.Fields(ref[b])[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			cycles[b+"/"+fig10Mechs[i]] = uint64(math.Round(v * 1000))
		}
	}
	got, err := fig10Rows(fig10Benches, cycles)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range fig10Benches {
		if got[i] != ref[b] {
			t.Errorf("row %s:\n got  %q\n want %q", b, got[i], ref[b])
		}
	}
}

// TestGridSeedPermutesJobs: the grid's seed reorders its jobs and leaves
// every profile's seed as it is.
func TestGridSeedPermutesJobs(t *testing.T) {
	w, err := WorkloadByName("fig10-grid")
	if err != nil {
		t.Fatal(err)
	}
	base, err := w.Jobs(0)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]uint64, len(base))
	for _, j := range base {
		want[j.Key()] = j.Profile.Seed
	}
	orders := make(map[string]bool)
	for seed := uint64(1); seed <= 4; seed++ {
		jobs, err := w.Jobs(seed)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, j := range jobs {
			if s, ok := want[j.Key()]; !ok || j.Profile.Seed != s {
				t.Errorf("seed %d: job %s is not one of seed 0's", seed, j.Key())
			}
			order = append(order, j.Key())
		}
		if len(jobs) != len(base) {
			t.Errorf("seed %d: %d jobs, want %d", seed, len(jobs), len(base))
		}
		orders[strings.Join(order, " ")] = true
	}
	if len(orders) != 4 {
		t.Errorf("4 seeds gave %d distinct job orders", len(orders))
	}
}

// digestSeeds are the seeds testdata/digests.json covers: every profile's
// built-in seed, and the held-out seed 7.
var digestSeeds = []uint64{0, 7}

// TestCommittedDigestsCoverWorkloads: every job of every workload has a
// committed digest at both seeds.
func TestCommittedDigestsCoverWorkloads(t *testing.T) {
	for _, seed := range digestSeeds {
		for _, w := range Workloads {
			d, err := committedDigests(w.Name, w.profileSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := w.Jobs(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if len(d[j.Key()]) != 64 {
					t.Errorf("seed %d %s %s: no committed digest", seed, w.Name, j.Key())
				}
			}
		}
	}
}

// TestUpdateDigests rewrites testdata/digests.json when run with -update
// (about a minute of full-size simulations).
func TestUpdateDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/digests.json")
	}
	d := make(digestTable)
	for _, seed := range digestSeeds {
		perSeed := make(map[string]map[string]string)
		for _, w := range Workloads {
			if w.profileSeed(seed) != seed {
				continue // the grid's profiles ignore the seed
			}
			jobs, err := w.Jobs(seed)
			if err != nil {
				t.Fatal(err)
			}
			perJob := make(map[string]string)
			for _, j := range jobs {
				r := runJob(w.Config(), j, loopSim)
				if r.err != nil {
					t.Fatal(r.err)
				}
				perJob[j.Key()] = r.digest
			}
			perSeed[w.Name] = perJob
		}
		d[fmt.Sprint(seed)] = perSeed
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/digests.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
