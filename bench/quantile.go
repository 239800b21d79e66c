package bench

import "sort"

// Quantile returns the q-quantile (0 < q < 1) of sorted samples,
// interpolating between order statistics at position q*(n+1) — the method
// of Python's statistics.quantiles (its default "exclusive" method), so
// quartiles here match the ones the benchmark's spread rule is stated in.
// Positions outside [1, n] clamp to the extremes.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n+1)
	if pos <= 1 {
		return sorted[0]
	}
	if pos >= float64(n) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
}

// Median returns the median of xs, which it leaves unmodified.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantile(s, 0.5)
}
