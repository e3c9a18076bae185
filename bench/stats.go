package main

import (
	"math"
	"slices"
)

// metric is one measured quantity: its trial values and their median
// and quartiles. The reported value is the median.
type metric struct {
	Name   string    `json:"-"`
	Unit   string    `json:"unit"`
	Trials []float64 `json:"trials"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newMetric(name, unit string, trials ...float64) metric {
	q := quartiles(trials)
	return metric{Name: name, Unit: unit, Trials: trials, Q1: q[0], Median: q[1], Q3: q[2]}
}

// spread is the interquartile range as a share of the median.
func (m metric) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return math.Abs((m.Q3 - m.Q1) / m.Median)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), whose middle quartile is the median; one value
// is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentile interpolates linearly between the closest ranks; 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := xs
	if !slices.IsSorted(s) {
		s = slices.Clone(xs)
		slices.Sort(s)
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
