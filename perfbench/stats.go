package main

import (
	"math"
	"sort"
)

// quantile returns the exact nearest-rank q-quantile of vals (sorting
// vals in place); NaN when vals is empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(vals) {
		sort.Float64s(vals)
	}
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	return vals[min(max(i, 0), len(vals)-1)]
}

// quantile32 is quantile over sorted float32 samples.
func quantile32(sorted []float32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func median(vals []float64) float64 {
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
