// Command abcompare compares two sides of a same-host A/B run of the
// benchmark, metric by metric and workload by workload.
//
// Usage:
//
//	abcompare -spec BENCHMARK.json base.jsonl head.jsonl
//
// Each input line is {"workload": name, "pair": n, "result": <the last
// line burstbench printed>}; lines with the same workload and pair number
// ran with the same seed, one right after the other. A run that failed its
// correctness check is left out of the quartiles, and its pair counts as
// run but not won. For every workload × end-to-end metric it prints both
// sides' median and quartiles, the share of all pairs run that head won,
// each side's failed runs, and a verdict, the first of these that holds:
//
//   - regressed: head failed more runs than base, or head's median is
//     worse than base's by more than the bound;
//   - improved: head won at least 90% of the pairs (ties count for
//     neither side) and the medians differ by more than base's
//     interquartile range;
//   - unresolved: base's interquartile range, as a share of its median, is
//     wider than the metric's bound, unless every head run beat every
//     base run;
//   - unchanged: otherwise.
//
// It exits 1 when any verdict is "regressed" and 2 on bad input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"burstmem/bench"
)

type line struct {
	Workload string       `json:"workload"`
	Pair     int          `json:"pair"`
	Result   bench.Result `json:"result"`
}

// samples maps workload -> pair -> that pair's result on one side.
type samples map[string]map[int]bench.Result

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition holding the metric directions and bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: abcompare -spec BENCHMARK.json base.jsonl head.jsonl")
		os.Exit(2)
	}
	regressed, err := run(*specPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

func run(specPath, basePath, headPath string) (regressed bool, err error) {
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	head, err := load(headPath)
	if err != nil {
		return false, err
	}
	return report(spec, base, head), nil
}

func load(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := make(samples)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !l.Result.Correct {
			fmt.Fprintf(os.Stderr, "%s:%d: %s pair %d failed its correctness check\n", path, n, l.Workload, l.Pair)
		}
		if s[l.Workload] == nil {
			s[l.Workload] = make(map[int]bench.Result)
		}
		s[l.Workload][l.Pair] = l.Result
	}
	return s, sc.Err()
}

// report prints one row per workload × end-to-end metric and says whether
// any regressed.
func report(spec bench.Spec, base, head samples) (regressed bool) {
	var workloads []string
	for w := range base {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	fmt.Printf("%-12s %-16s %5s %7s  %-38s %-38s %5s  %s\n", "workload", "metric", "pairs", "failed",
		"base median [q1, q3]", "head median [q1, q3]", "won", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			p := pairUp(base[w], head[w], m.Name)
			if p.runs == 0 {
				continue
			}
			c := compare(p, m.Better == "higher", m.Bound)
			fmt.Printf("%-12s %-16s %5d %3d/%-3d  %-38s %-38s %4.0f%%  %s\n", w, m.Name, p.runs,
				p.baseFailed, p.headFailed, summary(c.base), summary(c.head), 100*c.won, c.verdict)
			regressed = regressed || c.verdict == "regressed"
		}
	}
	return regressed
}

// paired holds one workload × metric over the pairs both sides ran: base[i]
// and head[i] ran with the same seed and both passed their correctness
// checks; runs counts every pair, and baseFailed and headFailed the runs
// of each side that failed their checks.
type paired struct {
	base, head             []float64
	runs                   int
	baseFailed, headFailed int
}

func pairUp(base, head map[int]bench.Result, metric string) paired {
	var p paired
	for pair, b := range base {
		h, ok := head[pair]
		if !ok {
			continue
		}
		p.runs++
		if !b.Correct {
			p.baseFailed++
		}
		if !h.Correct {
			p.headFailed++
		}
		bm, bok := b.Metrics[metric]
		hm, hok := h.Metrics[metric]
		if b.Correct && h.Correct && bok && hok {
			p.base = append(p.base, bm.Value)
			p.head = append(p.head, hm.Value)
		}
	}
	return p
}

// quartiles are a side's first quartile, median and third quartile.
type quartiles struct{ q1, med, q3 float64 }

func summary(q quartiles) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q.med, q.q1, q.q3)
}

func quartilesOf(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quartiles{bench.Quantile(s, 0.25), bench.Quantile(s, 0.5), bench.Quantile(s, 0.75)}
}

type comparison struct {
	base, head quartiles
	won        float64 // share of all pairs run in which head read better
	verdict    string
}

// compare applies the verdict rule to one workload × metric.
func compare(p paired, higherBetter bool, bound float64) comparison {
	c := comparison{base: quartilesOf(p.base), head: quartilesOf(p.head)}
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range p.base {
		if better(p.head[i], p.base[i]) {
			wins++
		}
	}
	c.won = float64(wins) / float64(p.runs)
	allBetter := true
	for _, h := range p.head {
		for _, b := range p.base {
			allBetter = allBetter && better(h, b)
		}
	}
	gain := c.head.med - c.base.med // improvement, in the metric's direction
	if !higherBetter {
		gain = -gain
	}
	iqr := c.base.q3 - c.base.q1
	relative := func(d float64) float64 { // d as a share of base's median
		if c.base.med == 0 {
			return 0
		}
		return d / math.Abs(c.base.med)
	}
	switch {
	case p.headFailed > p.baseFailed || relative(-gain) > bound:
		c.verdict = "regressed"
	case c.won >= 0.9 && gain > iqr:
		c.verdict = "improved"
	case relative(iqr) > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}
