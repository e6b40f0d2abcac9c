package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// interpolation as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the one the benchmark's bounds are judged by. A
// single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread returns the distance between the quartiles of xs as a share of
// their median: the form in which the bounds in BENCHMARK.json are set.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// rank is the nearest rank of percentile p among n samples, with a
// tolerance for p/100 not being exact in binary (99.9% of 10000 samples
// is rank 9990, not 9991).
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// percentile returns the nearest-rank percentile p of ascending s.
func percentile(s []float64, p float64) float64 { return s[rank(p, len(s))-1] }

// tailPercentiles are the candidates for the reported tail percentile,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailPercentiles that still has
// at least ten samples beyond it, with its nearest-rank value. ok is
// false when there are fewer than 20 samples, so no percentile has ten
// samples above it.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		if n-rank(p, n) < 10 {
			continue
		}
		return p, percentile(sorted(xs), p), true
	}
	return 0, 0, false
}

// describe renders a timing series as its median, its tail percentile
// and the sample count, the form every timing is printed in.
func describe(xs []float64, unit string) string {
	out := fmt.Sprintf("median %.6g %s, n=%d", median(xs), unit, len(xs))
	if p, v, ok := tail(xs); ok {
		out += fmt.Sprintf(", p%g %.6g %s", p, v, unit)
	}
	return out
}
