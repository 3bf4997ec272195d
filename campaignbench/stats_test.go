package main

import "testing"

// The expected values are those of Python's statistics.median and
// statistics.quantiles(xs, n=4), so the spreads compare prints equal
// the ones that function gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{10, 1, 7, 3, 9, 2, 8}, 2, 7, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("%v: got %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
