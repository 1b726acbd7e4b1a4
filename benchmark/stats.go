package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// samplesBeyond is how many of n samples lie beyond the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// minTailSamples is the "at least ten samples beyond it" rule: a percentile
// with fewer is one or two slow ops, not a distribution.
const minTailSamples = 10

// tailCandidates are the percentiles a report may quote, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// highestSupportedTail returns the highest candidate percentile that still
// has minTailSamples samples beyond it, or 50 when none does.
func highestSupportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= minTailSamples {
			return p
		}
	}
	return 50
}

// geomean of strictly positive values; 0 for an empty sample.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles computed the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so -repeat
// prints the number the acceptance check computes.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// pairedDiffMedian is the median of b[i]-a[i]: the cost one more layer of
// depth adds to the same request.
func pairedDiffMedian(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = b[i] - a[i]
	}
	return median(d)
}
