package main

import "sort"

// tailSamples is the number of samples a reported percentile must have
// beyond it. A percentile with fewer samples above it is one or two
// outliers, not a tail.
const tailSamples = 10

// pctl is one reported percentile: the percentile actually used, the
// value at it, and the sample count it was taken from.
type pctl struct {
	// Want is the percentile asked for (50, 99).
	Want int `json:"want"`
	// P is the percentile reported: the highest integer percentile at or
	// below Want that leaves at least tailSamples samples beyond its rank.
	P int `json:"p"`
	// N is the number of samples.
	N int `json:"n"`
	// Value is the sample at P's nearest rank.
	Value float64 `json:"value"`
	// OK is false when no percentile qualifies (N <= tailSamples); Value is
	// then 0 and must not be reported.
	OK bool `json:"ok"`
}

// nearestRank returns the 1-based nearest rank of percentile p among n
// samples: ceil(p/100 * n), clamped to [1, n]. Integer arithmetic keeps
// the exact boundaries exact.
func nearestRank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile applies the reporting rule to sorted samples: the highest
// percentile at or below want with at least tailSamples samples beyond its
// nearest rank.
func percentile(sorted []float64, want int) pctl {
	n := len(sorted)
	out := pctl{Want: want, N: n}
	for p := want; p >= 1; p-- {
		r := nearestRank(p, n)
		if n-r >= tailSamples {
			out.P, out.Value, out.OK = p, sorted[r-1], true
			return out
		}
	}
	return out
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// perOp divides a total by an op count; 0 when there are no ops.
func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// pct is 100*part/whole; 0 when whole is 0.
func pct(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// jain is Jain's fairness index over xs: 1 for a perfectly even spread,
// 1/n when one element holds everything, 0 for empty or all-zero input.
func jain(xs []int64) float64 {
	var sum, sq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sq += f * f
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// mean is the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
