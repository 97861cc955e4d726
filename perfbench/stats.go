package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linear-interpolation quantile (q in [0,1]) of xs; NaN
// when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the tail-latency reading of one sample: the value at a fixed
// percentile pct and how many samples lie strictly beyond it.
type tail struct {
	pct    float64
	value  float64
	beyond int
	n      int
}

// tailAt reads xs at percentile pct (nearest rank) and counts the
// samples above that rank.
func tailAt(xs []float64, pct float64) tail {
	s := sortedCopy(xs)
	t := tail{pct: pct, n: len(s), value: math.NaN()}
	if len(s) == 0 {
		return t
	}
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	t.value = s[rank-1]
	t.beyond = len(s) - rank
	return t
}
