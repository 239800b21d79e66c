// Package stats provides the counters, distributions and table rendering
// used by the memory-system simulator to aggregate and report results.
//
// Everything in this package is deterministic and allocation-light: the
// simulator samples distributions every memory cycle, so the hot paths are
// simple integer updates.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean accumulates a running mean of uint64 samples (e.g. access latencies).
type Mean struct {
	sum float64
	n   uint64
}

// Add records one sample.
func (m *Mean) Add(v uint64) {
	m.sum += float64(v)
	m.n++
}

// Mean returns the arithmetic mean, or 0 when empty.
func (m *Mean) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Histogram counts integer-valued samples into unit-width buckets
// [0, size). Samples >= size land in the final overflow bucket.
type Histogram struct {
	buckets []uint64
	total   uint64
}

// NewHistogram returns a histogram with buckets for values 0..size-1 plus
// an overflow bucket at size-1.
func NewHistogram(size int) *Histogram {
	if size < 1 {
		size = 1
	}
	return &Histogram{buckets: make([]uint64, size)}
}

// Add records a sample with weight 1.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records a sample with the given weight. Negative values clamp to 0.
func (h *Histogram) AddN(v int, weight uint64) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v] += weight
	h.total += weight
}

// Total returns the sum of all weights recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the weight recorded in bucket v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Fraction returns bucket v's share of the total weight.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Mean returns the weighted mean bucket index.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s float64
	for i, c := range h.buckets {
		s += float64(i) * float64(c)
	}
	return s / float64(h.total)
}

// Percentile returns the smallest bucket index at or below which at least
// p (0..1) of the weight lies. Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(h.total)
	var cum float64
	for i, c := range h.buckets {
		cum += float64(c)
		if cum >= target {
			return i
		}
	}
	return len(h.buckets) - 1
}

// Peak returns the bucket index with the largest weight (lowest index wins
// ties) and its fraction of the total.
func (h *Histogram) Peak() (bucket int, fraction float64) {
	var best uint64
	for i, c := range h.buckets {
		if c > best {
			best = c
			bucket = i
		}
	}
	return bucket, h.Fraction(bucket)
}

// NonzeroMax returns the highest occupied bucket, or -1 for an empty
// histogram — the natural upper bound when printing a distribution without
// trailing empty rows.
func (h *Histogram) NonzeroMax() int {
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if h.buckets[i] != 0 {
			return i
		}
	}
	return -1
}

// Size returns the number of buckets.
func (h *Histogram) Size() int { return len(h.buckets) }

// Reset clears all buckets.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.total = 0
}

// Table renders aligned text tables for the experiment harness.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a float with sensible precision for report tables.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header + rows; cells with
// commas or quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
