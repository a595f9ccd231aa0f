package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(v, n=4).
	cases := []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1.5, 9.25, 4, 7.5, 2, 8}, 2, 5, 8},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func seq(base, step float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = base + step*float64(i%5)
	}
	return v
}

func TestDecide(t *testing.T) {
	parent := seq(100, 1, 10) // median 102, IQR 2.75, spread ~2.7%
	cases := []struct {
		name  string
		p, c  []float64
		lower bool
		bound float64
		more  bool
		want  string
	}{
		{"clear gain", parent, seq(90, 1, 10), true, 0.1, false, "improved"},
		{"gain on a higher-is-better metric", parent, seq(110, 1, 10), false, 0.1, false, "improved"},
		{"same", parent, seq(100, 1, 10), true, 0.1, false, "unchanged"},
		{"small gap inside the parent IQR", parent, seq(99, 1, 10), true, 0.1, false, "unchanged"},
		{"worse beyond the bound", parent, seq(115, 1, 10), true, 0.1, false, "worse"},
		{"worse but within the bound", parent, seq(105, 1, 10), true, 0.1, false, "unchanged"},
		{"gain voided by more failures", parent, seq(90, 1, 10), true, 0.1, true, "unresolved"},
		{"fewer than ten pairs", seq(100, 1, 9), seq(90, 1, 9), true, 0.1, false, "unchanged"},
		{"parent spread wider than the bound", seq(100, 20, 10), seq(101, 20, 10), true, 0.1, false, "unresolved"},
		{"wide spread but every change run better", seq(100, 20, 10), seq(10, 1, 10), true, 0.1, false, "improved"},
		{"no pairs", nil, nil, true, 0.1, false, "unresolved"},
	}
	for _, c := range cases {
		if got := decide(c.p, c.c, c.lower, c.bound, c.more); got.Decision != c.want {
			t.Errorf("%s: %s (%s), want %s", c.name, got.Decision, got.Why, c.want)
		}
	}
	// Nine wins in ten pairs is enough; eight is not.
	c := seq(90, 1, 10)
	c[0] = 1000
	if got := decide(parent, c, true, 10, false); got.Decision != "improved" || got.Wins != 9 {
		t.Errorf("9/10 wins: %s with %d wins", got.Decision, got.Wins)
	}
	c[1] = 1000
	if got := decide(parent, c, true, 10, false); got.Decision != "unchanged" {
		t.Errorf("8/10 wins: %s, want unchanged", got.Decision)
	}
}

func TestCompareReportsEveryMetricAndWorkload(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricSpec{
		{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "ops", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	mk := func(wl string, seed int64, order int, lat, ops float64) run {
		var r run
		r.Workload, r.Seed, r.Order = wl, seed, order
		r.Result.Attempted = 100
		r.Result.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"lat": {lat}, "ops": {ops}}
		return r
	}
	var parent, change []run
	for i := int64(0); i < 10; i++ {
		o := int(2 * i)
		po, co := o, o+1
		if i%2 == 1 {
			po, co = o+1, o
		}
		parent = append(parent, mk("a", i, po, 100+float64(i%3), 50), mk("b", i, po, 100, 50+float64(i%3)))
		change = append(change, mk("a", i, co, 80+float64(i%3), 50), mk("b", i, co, 100, 30))
	}
	var out bytes.Buffer
	worse, err := compare(&out, spec, parent, change)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !worse {
		t.Errorf("ops on b dropped 40%%: want worse\n%s", s)
	}
	for _, want := range []string{"workload a: 10 pairs (parent ran first in 5)", "workload b", "improved", "worse", "unchanged"} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "do not alternate") {
		t.Errorf("alternating pairs reported as not alternating:\n%s", s)
	}
}
