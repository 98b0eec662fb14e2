package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must rank above a reported percentile
// for it to be more than a single outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which must be sorted ascending, and how many values rank above it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], len(sorted) - rank - 1
}

// tailPercentile is percentile with the ten-beyond rule enforced: a
// tail percentile resting on fewer samples is an error, not a number.
func tailPercentile(sorted []float64, p float64) (float64, error) {
	v, beyond := percentile(sorted, p)
	if beyond < minBeyond {
		return v, fmt.Errorf("p%g rests on %d samples beyond it (n=%d), need %d", 100*p, beyond, len(sorted), minBeyond)
	}
	return v, nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// capacityPerCore converts a phase's verified input into the number of
// concurrent 10 Hz calls one fully busy core would carry at the same
// mix: call-seconds verified per CPU-second spent.
func capacityPerCore(samples int, cpu time.Duration) float64 {
	if cpu <= 0 {
		return math.NaN()
	}
	return float64(samples) / sampleHz / cpu.Seconds()
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
