package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles the tail rule chooses from, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rankOf returns the 0-based nearest-rank index of percentile p among n
// sorted samples, and how many samples lie strictly beyond it.
func rankOf(n int, p float64) (idx, beyond int) {
	if n == 0 {
		return -1, 0
	}
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank one place up.
	idx = int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx, n - idx - 1
}

// supported reports whether percentile p of n samples has at least ten
// samples beyond it — the rule every tail figure of this benchmark obeys.
func supported(n int, p float64) bool {
	_, beyond := rankOf(n, p)
	return n > 0 && beyond >= 10
}

// tailPercentile returns the highest ladder percentile with at least ten
// samples beyond it, or 0 when even the median lacks them.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if supported(n, p) {
			return p
		}
	}
	return 0
}

// dist is a sorted latency sample set in nanoseconds.
type dist []int64

func newDist(samples []int64) dist {
	d := append(dist(nil), samples...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// at returns percentile p (nearest rank), or 0 for an empty set.
func (d dist) at(p float64) int64 {
	idx, _ := rankOf(len(d), p)
	if idx < 0 {
		return 0
	}
	return d[idx]
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var s float64
	for _, v := range d {
		s += float64(v)
	}
	return s / float64(len(d))
}

// describeTail renders the tail figure with its sample accounting, e.g.
// "p99 = 1.234 ms (n=31200, 311 beyond)". When p99 is not supported the
// highest supported percentile is reported instead and said so.
func (d dist) describeTail(unit time.Duration, unitName string) string {
	n := len(d)
	p := 99.0
	note := ""
	if !supported(n, p) {
		p = tailPercentile(n)
		note = " [p99 unsupported: fewer than 10 samples beyond it]"
		if p == 0 {
			return fmt.Sprintf("no supported tail (n=%d)", n)
		}
	}
	_, beyond := rankOf(n, p)
	return fmt.Sprintf("p%g = %.4f %s (n=%d, %d beyond; highest supported p%g)%s",
		p, float64(d.at(p))/float64(unit), unitName, n, beyond, tailPercentile(n), note)
}

// tail returns the value reported as "p99": percentile 99 when supported,
// otherwise the highest supported percentile.
func (d dist) tail() int64 {
	if supported(len(d), 99) {
		return d.at(99)
	}
	return d.at(tailPercentile(len(d)))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
