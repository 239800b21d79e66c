package trace

import (
	"reflect"
	"testing"
)

// TestNilTracerNoOps calls every exported method on a nil tracer, with
// zero-value arguments: the disabled path must be safe to call from
// instrumentation sites that never check for attachment, including for
// methods added after this test.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	v := reflect.ValueOf(tr)
	for i := 0; i < v.NumMethod(); i++ {
		name, mt := v.Type().Method(i).Name, v.Method(i).Type()
		args := make([]reflect.Value, mt.NumIn())
		for j := range args {
			args[j] = reflect.Zero(mt.In(j))
		}
		call := v.Method(i).Call
		if mt.IsVariadic() {
			call = v.Method(i).CallSlice
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Tracer)(nil).%s panics: %v", name, r)
				}
			}()
			call(args)
		}()
	}
	if tr.Enabled() || tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil ||
		tr.Intervals() != nil || tr.Count(EvRead) != 0 {
		t.Fatal("nil tracer must observe nothing")
	}
}

// TestRingOrderAndWrap checks chronological drain order and
// oldest-overwritten semantics when the ring fills.
func TestRingOrderAndWrap(t *testing.T) {
	tr := New(4, 0)
	for i := uint64(1); i <= 6; i++ {
		tr.Enqueue(i, 0, 0, 0, 0, i, false)
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(3 + i); e.Cycle != want {
			t.Fatalf("event %d at cycle %d, want %d (oldest must be overwritten first)", i, e.Cycle, want)
		}
	}
	if tr.Count(EvEnqueue) != 6 {
		t.Fatalf("Count(EvEnqueue) = %d, want 6 (counts survive overwrites)", tr.Count(EvEnqueue))
	}
}

// TestIntervalMetrics folds a synthetic stream into intervals and checks
// the derived rates.
func TestIntervalMetrics(t *testing.T) {
	tr := New(64, 100)
	// Cycle-ordered stream, as the controller emits it. Interval [0,100):
	// one read transferring 4 bus cycles, one hit. Interval [100,200): one
	// activate, one conflict start, one write.
	for c := uint64(0); c < 200; c++ {
		switch c {
		case 10:
			tr.Command(10, EvRead, 0, 0, 0, 1, 15, 19)
			tr.Start(10, 0, 0, 0, 1, 1, 0, false)
		case 150:
			tr.Command(150, EvActivate, 0, 0, 1, 2, 0, 0)
		case 160:
			tr.Start(160, 0, 0, 1, 2, 2, 2, true)
		case 170:
			tr.Command(170, EvWrite, 0, 0, 1, 2, 175, 179)
		}
		tr.SampleOccupancy(c, 2, 1, c >= 100)
	}
	ivs := tr.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2", len(ivs))
	}
	iv0, iv1 := ivs[0], ivs[1]
	if iv0.Start != 0 || iv0.End != 100 || iv1.Start != 100 || iv1.End != 200 {
		t.Fatalf("bad interval bounds: %+v %+v", iv0, iv1)
	}
	if iv0.Reads != 1 || iv0.DataBusCycles != 4 || iv0.RowHitRate() != 1.0 {
		t.Fatalf("interval 0 metrics wrong: %+v", iv0)
	}
	if iv1.Writes != 1 || iv1.Activates != 1 || iv1.Outcomes[2] != 1 || iv1.RowHitRate() != 0 {
		t.Fatalf("interval 1 metrics wrong: %+v", iv1)
	}
	if iv0.MeanOutstandingReads() != 2 || iv0.MeanOutstandingWrites() != 1 {
		t.Fatalf("interval 0 occupancy wrong: %+v", iv0)
	}
	if iv0.WriteSaturation() != 0 || iv1.WriteSaturation() != 1 {
		t.Fatalf("saturation wrong: %v %v", iv0.WriteSaturation(), iv1.WriteSaturation())
	}
	if iv0.DataBusUtil() != 0.04 {
		t.Fatalf("bus util = %v, want 0.04", iv0.DataBusUtil())
	}
}

// TestSkippedSampleSplitsAtBoundary is the bit-identity guarantee for
// cycle skipping: a bulk occupancy sample spanning interval boundaries
// must attribute exactly the same per-interval weights as per-cycle
// sampling would.
func TestSkippedSampleSplitsAtBoundary(t *testing.T) {
	bulk := New(1, 100)
	// Skip from cycle 50 to cycle 250: covers cycles 51..250.
	bulk.SampleOccupancySkipped(50, 250, 4, 3, true)

	stepped := New(1, 100)
	for c := uint64(51); c <= 250; c++ {
		stepped.SampleOccupancy(c, 4, 3, true)
	}

	b, s := bulk.Intervals(), stepped.Intervals()
	if len(b) != len(s) {
		t.Fatalf("interval counts differ: %d vs %d", len(b), len(s))
	}
	for i := range b {
		if b[i] != s[i] {
			t.Fatalf("interval %d differs:\nbulk    %+v\nstepped %+v", i, b[i], s[i])
		}
	}
	if n := len(b); n != 3 || b[0].OccCycles != 49 || b[1].OccCycles != 100 || b[2].OccCycles != 51 {
		t.Fatalf("bad split: %+v", b)
	}
}

// TestDeterministicStream re-runs the same emission sequence and requires
// identical Events and Intervals — the diffability contract.
func TestDeterministicStream(t *testing.T) {
	run := func() *Tracer {
		tr := New(128, 50)
		for i := uint64(0); i < 300; i++ {
			switch i % 4 {
			case 0:
				tr.Enqueue(i, int(i%2), 0, int(i%4), uint32(i%8), i, i%3 == 0)
			case 1:
				tr.Command(i, EvActivate, int(i%2), 0, int(i%4), uint32(i%8), 0, 0)
			case 2:
				tr.Command(i, EvRead, int(i%2), 0, int(i%4), uint32(i%8), i+5, i+9)
			case 3:
				tr.Complete(i, int(i%2), 0, int(i%4), uint32(i%8), i, i-3, 0)
			}
			tr.SampleOccupancy(i, int(i%7), int(i%5), false)
		}
		return tr
	}
	a, b := run(), run()
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		t.Fatalf("event counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	ia, ib := a.Intervals(), b.Intervals()
	if len(ia) != len(ib) {
		t.Fatalf("interval counts differ")
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("interval %d differs", i)
		}
	}
}
