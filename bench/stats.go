package main

import (
	"math"
	"sort"
)

// summary is how the record file reports a set of per-invocation samples:
// the median of all of them, and beside it the spread between rounds. A
// window's samples are cut into at most five consecutive rounds and each
// round is reduced to its median; the quartiles and range are over those
// round medians. That is the run-to-run spread a bound can be compared
// with: the spread of single sub-second invocations says how jittery a
// process is, not how well the window's median is known. With five rounds
// no tail percentile is supported, so none is reported.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"` // invocations behind the median
	// Rounds are the round medians, Values every sample, in the order taken.
	Rounds []float64 `json:"rounds,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

const maxRounds = 5

func summarize(unit string, v []float64) summary {
	s := summary{Unit: unit, N: len(v), Values: v}
	if len(v) == 0 {
		return s
	}
	rounds := min(maxRounds, len(v))
	for r := 0; r < rounds; r++ {
		s.Rounds = append(s.Rounds, median(v[r*len(v)/rounds:(r+1)*len(v)/rounds]))
	}
	sorted := append([]float64(nil), s.Rounds...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Q1, _, s.Q3 = quartiles(sorted)
	s.Median = median(v)
	return s
}

// spread is the inter-quartile range of the rounds as a share of the
// median: the run-to-run noise a bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quartiles returns the three cut points of sorted data by the method of
// Python's statistics.quantiles(v, n=4) (exclusive: position i·(n+1)/4),
// which is the method the benchmark contract names. Fewer than two
// samples have no spread: all three are the sample.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	_, m, _ := quartiles(sorted)
	return m
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}
