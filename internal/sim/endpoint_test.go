package sim

import (
	"reflect"
	"testing"

	"burstmem/internal/trace"
)

// TestSweepEndpointsAreNamedVariants pins the identities that let
// cmd/experiments share runs between Figures 7-10 and the threshold sweep
// of Figures 11-12 (paper Section 5.4): threshold 0 is Burst_WP (its
// preemption test, occupancy < 0, never holds), threshold 64 is Burst_RP
// (its piggyback test, occupancy > 64, never holds, since occupancy never
// exceeds the 64-entry write queue) and threshold 52 is Burst_TH. Each
// pair must agree on every Result field but the name, and on how often it
// preempts and piggybacks.
func TestSweepEndpointsAreNamedVariants(t *testing.T) {
	pairs := []struct {
		named, th            string
		preempts, piggybacks bool
	}{
		{"Burst_WP", "Burst_TH0", false, true},
		{"Burst_RP", "Burst_TH64", true, false},
		{"Burst_TH", "Burst_TH52", true, true},
	}
	if w := quickConfig().Mem.MaxWrites; w != 64 {
		t.Fatalf("write queue holds %d entries; Burst_RP is Burst_TH64 only at 64", w)
	}
	for _, bench := range []string{"swim", "lucas"} {
		for _, p := range pairs {
			t.Run(bench+"/"+p.named, func(t *testing.T) {
				named, th := runTraced(quickConfig(), bench, p.named), runTraced(quickConfig(), bench, p.th)
				if named.err != nil || th.err != nil {
					t.Fatal(named.err, th.err)
				}
				named.res.Mechanism, th.res.Mechanism = "", ""
				if !reflect.DeepEqual(named.res, th.res) {
					t.Errorf("%s and %s results differ", p.named, p.th)
				}
				for _, c := range []struct {
					kind trace.Kind
					does bool
				}{{trace.EvPreempt, p.preempts}, {trace.EvPiggyback, p.piggybacks}} {
					n, m := named.tr.Count(c.kind), th.tr.Count(c.kind)
					if n != m {
						t.Errorf("%v: %s records %d, %s records %d", c.kind, p.named, n, p.th, m)
					}
					if (n > 0) != c.does {
						t.Errorf("%v: %s records %d", c.kind, p.named, n)
					}
				}
			})
		}
	}
}
