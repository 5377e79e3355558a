package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), because that
// is how the spread of this benchmark is judged. Fewer than two values
// have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	m := len(xs)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the figure is one or two outliers, not a percentile.
const minBeyond = 10

// rank is the index of the p-th percentile of n ascending samples by
// nearest rank.
func rank(n int, p float64) int {
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// supports reports whether n samples support the p-th percentile
// (0 < p < 100): at least minBeyond of them must lie beyond it.
func supports(n int, p float64) error {
	if p <= 0 || p >= 100 {
		return fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	if beyond := n - 1 - rank(n, p); beyond < minBeyond {
		return fmt.Errorf("p%v of %d samples leaves %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return nil
}

// percentile picks the p-th percentile of an ascending slice by nearest
// rank. It refuses — returns an error — when the slice does not support
// it.
func percentile(sorted []float64, p float64) (float64, error) {
	if err := supports(len(sorted), p); err != nil {
		return 0, err
	}
	return sorted[rank(len(sorted), p)], nil
}
