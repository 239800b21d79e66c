package stats

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Mean() != 0 {
		t.Fatal("empty mean not zero")
	}
	for _, v := range []uint64{2, 4, 6} {
		m.Add(v)
	}
	if m.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", m.Mean())
	}
}

// TestMeanProperty: the mean lies within [min, max] of the samples.
func TestMeanProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var m Mean
		for _, v := range vals {
			m.Add(uint64(v))
		}
		lo, hi := slices.Min(vals), slices.Max(vals)
		return float64(lo) <= m.Mean()+1e-9 && m.Mean() <= float64(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(8)
	h.Add(0)
	h.Add(3)
	h.Add(3)
	h.AddN(100, 2) // overflow clamps to last bucket
	h.Add(-5)      // clamps to 0
	if h.Total() != 6 {
		t.Fatalf("total %d", h.Total())
	}
	if h.Count(3) != 2 || h.Count(7) != 2 || h.Count(0) != 2 {
		t.Fatalf("counts: %d %d %d", h.Count(3), h.Count(7), h.Count(0))
	}
	if h.Fraction(3) != 2.0/6 {
		t.Fatalf("fraction %v", h.Fraction(3))
	}
	if b, f := h.Peak(); b != 0 || f != 2.0/6 {
		t.Fatalf("peak %d %v", b, f)
	}
	if h.Size() != 8 {
		t.Fatal("size")
	}
	h.Reset()
	if h.Total() != 0 {
		t.Fatal("reset")
	}
}

// TestHistogramMeanProperty: mean of single-value histogram is that value
// (clamped to range).
func TestHistogramMeanProperty(t *testing.T) {
	f := func(v uint8, n uint8) bool {
		if n == 0 {
			return true
		}
		h := NewHistogram(256)
		h.AddN(int(v), uint64(n))
		return h.Mean() == float64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("zebra", 3.14159)
	tb.AddRow("ant", 2)
	out := tb.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "zebra") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines (header, sep, 2 rows), got %d", len(lines))
	}
	// All lines aligned to equal prefix widths.
	if len(lines[0]) == 0 || lines[1][0] != '-' {
		t.Fatalf("separator missing:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{1234.5, "1234.5"},
		{0.123456, "0.123"},
		{150.25, "150.2"},
	} {
		if got := FormatFloat(tc.in); got != tc.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100)
	if h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram percentile not 0")
	}
	for v := 1; v <= 100; v++ {
		h.Add(v - 1) // values 0..99 uniformly
	}
	if got := h.Percentile(0.5); got != 49 {
		t.Fatalf("p50 = %d, want 49", got)
	}
	if got := h.Percentile(0.99); got != 98 {
		t.Fatalf("p99 = %d, want 98", got)
	}
	if got := h.Percentile(1.0); got != 99 {
		t.Fatalf("p100 = %d, want 99", got)
	}
	if got := h.Percentile(-1); got != 0 {
		t.Fatalf("clamped p = %d, want 0", got)
	}
	if got := h.Percentile(2); got != 99 {
		t.Fatalf("clamped p = %d, want 99", got)
	}
}

// TestPercentileMonotone property: percentiles are nondecreasing in p.
func TestPercentileMonotone(t *testing.T) {
	h := NewHistogram(64)
	for i := 0; i < 500; i++ {
		h.Add(i * 7 % 64)
	}
	prev := 0
	for p := 0.0; p <= 1.0; p += 0.05 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%.2f: %d < %d", p, v, prev)
		}
		prev = v
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("plain", 1)
	tb.AddRow("with,comma", `quo"te`)
	got := tb.CSV()
	want := "name,value\nplain,1\n\"with,comma\",\"quo\"\"te\"\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", got, want)
	}
}

func TestHistogramNonzeroMax(t *testing.T) {
	h := NewHistogram(16)
	if got := h.NonzeroMax(); got != -1 {
		t.Fatalf("empty NonzeroMax = %d, want -1", got)
	}
	h.Add(0)
	if got := h.NonzeroMax(); got != 0 {
		t.Fatalf("NonzeroMax = %d, want 0", got)
	}
	h.Add(7)
	h.AddN(3, 5)
	if got := h.NonzeroMax(); got != 7 {
		t.Fatalf("NonzeroMax = %d, want 7", got)
	}
	h.Add(99) // clamps into the last bucket
	if got := h.NonzeroMax(); got != h.Size()-1 {
		t.Fatalf("NonzeroMax after clamp = %d, want %d", got, h.Size()-1)
	}
	h.Reset()
	if got := h.NonzeroMax(); got != -1 {
		t.Fatalf("NonzeroMax after Reset = %d, want -1", got)
	}
}
