package main

import "sort"

// median returns the middle of vs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// iqrShare is the run-to-run spread -compare judges by: the distance
// between the first and third quartile of the raw samples as a share of
// their median, quartiles as Python's statistics.quantiles(vs, n=4)
// gives them (the driver's and spread.py's measure). Max−min would be
// set by a single outlier among 30-40 repetitions.
func iqrShare(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / med
}
