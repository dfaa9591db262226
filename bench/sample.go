package main

import "sort"

// summary is one metric's distribution over the passes of a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// numbers here match a spread computed from the printed values.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return summary{Median: med, Q1: med, Q3: med, N: 1}
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

// Verdicts of the same-host A/B rule (see verdict).
const (
	improved   = "improved"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict judges one metric from paired runs of the parent (old) and the
// change (new); old[i] and new[i] form pair i. A gain needs the change to win
// at least nine tenths of the pairs, ties counting for neither side, and the
// medians to differ by more than the parent's interquartile range. A
// regression is a median worse than the parent's by more than bound (a share
// of the parent's median). When the parent's own spread is wider than the
// bound the metric is unresolved, unless every run of the change reads worse
// than every run of the parent.
func verdict(old, new []float64, lowerBetter bool, bound float64) string {
	if len(old) == 0 || len(old) != len(new) {
		return unresolved
	}
	wins := pairWins(old, new, lowerBetter)
	so, sn := summarize(old), summarize(new)
	gain := so.Median - sn.Median // positive when the change is better
	if !lowerBetter {
		gain = -gain
	}
	iqr := so.Q3 - so.Q1
	if wins*10 >= 9*len(old) && gain > iqr {
		return improved
	}
	allWorse := true
	for _, n := range new {
		for _, o := range old {
			if !readsBetter(o, n, lowerBetter) {
				allWorse = false
			}
		}
	}
	scale := so.Median
	if scale < 0 {
		scale = -scale
	}
	if iqr > bound*scale && !allWorse {
		return unresolved
	}
	if -gain > bound*scale {
		return worse
	}
	return unchanged
}

// readsBetter reports whether value a reads better than value b.
func readsBetter(a, b float64, lowerBetter bool) bool {
	if lowerBetter {
		return a < b
	}
	return a > b
}

// pairWins counts the pairs in which the change reads better than the
// parent; ties count for neither.
func pairWins(old, new []float64, lowerBetter bool) int {
	wins := 0
	for i := range old {
		if readsBetter(new[i], old[i], lowerBetter) {
			wins++
		}
	}
	return wins
}
