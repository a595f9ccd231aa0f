// Command compare judges two sets of benchmark runs against the bounds in
// BENCHMARK.json, by the rules the benchmark was built to:
//
//   - runs are paired by (workload, seed), and the pairs should alternate
//     which side ran first;
//   - a gain needs the change to win at least nine tenths of the pairs
//     (ties count for neither) and the medians to differ by more than the
//     parent's interquartile range;
//   - every (metric, workload) is checked against its bound; where the
//     parent's own spread is wider than the bound, the result is
//     unresolved unless every change run beats every parent run;
//   - a gain does not count when a larger share of operations failed.
//
// Each (metric, workload) is printed as improved, unchanged, worse or
// unresolved. The exit status is 1 when any is worse.
//
//	go run ./compare -bench ../BENCHMARK.json parent.jsonl change.jsonl
//	go run ./compare -bench ../BENCHMARK.json -spread runs.jsonl
//
// Each input line is one run: {"workload", "seed", "order", "result"},
// where result is the benchmark's last output line and order is the run's
// position in the sequence both sides were run in. -spread prints each
// metric's median, quartiles and spread (IQR over median) for one set.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Order    int    `json:"order"`
	Result   struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r run
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default "exclusive" method.
func quartiles(v []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// verdict is the decision for one (metric, workload).
type verdict struct {
	Pairs, Wins int
	ParentMed   float64
	ChangeMed   float64
	ParentIQR   float64
	Spread      float64 // parent IQR over parent median
	Decision    string  // improved, unchanged, worse, unresolved
	Why         string
}

// decide applies the rules to paired values (p[i] and c[i] share a seed).
// lower says whether lower is better; moreFailures voids any gain.
func decide(p, c []float64, lower bool, bound float64, moreFailures bool) verdict {
	v := verdict{Pairs: len(p)}
	if len(p) == 0 {
		v.Decision, v.Why = "unresolved", "no pairs"
		return v
	}
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	for i := range p {
		if better(c[i], p[i]) {
			v.Wins++
		}
	}
	q1, med, q3 := quartiles(p)
	_, cmed, _ := quartiles(c)
	v.ParentMed, v.ChangeMed, v.ParentIQR = med, cmed, q3-q1
	v.Spread = math.Abs(v.ParentIQR / med)
	worseBy := (cmed - med) / math.Abs(med)
	if !lower {
		worseBy = -worseBy
	}
	allBetter := true
	for _, cv := range c {
		for _, pv := range p {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	gain := better(cmed, med) && math.Abs(cmed-med) > v.ParentIQR &&
		float64(v.Wins) >= 0.9*float64(len(p)) && len(p) >= 10
	switch {
	case worseBy > bound:
		v.Decision = "worse"
		v.Why = fmt.Sprintf("median worse by %.1f%% > bound %.0f%%", 100*worseBy, 100*bound)
	case v.Spread > bound && !allBetter:
		v.Decision = "unresolved"
		v.Why = fmt.Sprintf("parent spread %.1f%% wider than bound %.0f%%", 100*v.Spread, 100*bound)
	case gain && moreFailures:
		v.Decision = "unresolved"
		v.Why = "would be a gain, but a larger share of operations failed"
	case gain:
		v.Decision = "improved"
		v.Why = fmt.Sprintf("won %d/%d pairs, median gap %.4g > parent IQR %.4g", v.Wins, len(p), math.Abs(cmed-med), v.ParentIQR)
	default:
		v.Decision = "unchanged"
		v.Why = fmt.Sprintf("within bound %.0f%%; won %d/%d pairs", 100*bound, v.Wins, len(p))
		if len(p) < 10 {
			v.Why += " (fewer than 10 pairs: no gain can be claimed)"
		}
	}
	return v
}

// failShare is failed over attempted across a set of runs.
func failShare(rs []run) float64 {
	var f, a int64
	for _, r := range rs {
		f += r.Result.Failed
		a += r.Result.Attempted
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

func compare(w io.Writer, spec benchSpec, parent, change []run) (bool, error) {
	type key struct {
		wl   string
		seed int64
	}
	pm, cm := map[key]run{}, map[key]run{}
	for _, r := range parent {
		pm[key{r.Workload, r.Seed}] = r
	}
	for _, r := range change {
		cm[key{r.Workload, r.Seed}] = r
	}
	byWL := map[string][]key{}
	for k := range pm {
		if _, ok := cm[k]; ok {
			byWL[k.wl] = append(byWL[k.wl], k)
		}
	}
	wls := make([]string, 0, len(byWL))
	for wl := range byWL {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	anyWorse := false
	for _, wl := range wls {
		keys := byWL[wl]
		sort.Slice(keys, func(i, j int) bool { return keys[i].seed < keys[j].seed })
		var pr, cr []run
		alternating, firsts := true, 0
		for i, k := range keys {
			pr, cr = append(pr, pm[k]), append(cr, cm[k])
			parentFirst := pm[k].Order < cm[k].Order
			if parentFirst {
				firsts++
			}
			if i > 0 {
				prev := pm[keys[i-1]].Order < cm[keys[i-1]].Order
				if prev == parentFirst {
					alternating = false
				}
			}
		}
		pf, cf := failShare(pr), failShare(cr)
		fmt.Fprintf(w, "workload %s: %d pairs (parent ran first in %d), failure share parent %.6f change %.6f\n", wl, len(keys), firsts, pf, cf)
		if !alternating {
			fmt.Fprintf(w, "  warning: pairs do not alternate which side runs first\n")
		}
		for _, m := range spec.EndToEnd {
			var p, c []float64
			for i := range pr {
				pv, ok1 := pr[i].Result.Metrics[m.Name]
				cv, ok2 := cr[i].Result.Metrics[m.Name]
				if ok1 && ok2 {
					p, c = append(p, pv.Value), append(c, cv.Value)
				}
			}
			v := decide(p, c, m.Better == "lower", m.Bound, cf > pf)
			if v.Decision == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "  %-14s %-10s parent %.4g [IQR %.4g, spread %.1f%%] change %.4g: %s\n",
				m.Name, v.Decision, v.ParentMed, v.ParentIQR, 100*v.Spread, v.ChangeMed, v.Why)
		}
	}
	if len(wls) == 0 {
		return false, fmt.Errorf("no (workload, seed) pairs present on both sides")
	}
	return anyWorse, nil
}

func spread(w io.Writer, spec benchSpec, runs []run) {
	byWL := map[string][]run{}
	for _, r := range runs {
		byWL[r.Workload] = append(byWL[r.Workload], r)
	}
	wls := make([]string, 0, len(byWL))
	for wl := range byWL {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		rs := byWL[wl]
		fmt.Fprintf(w, "workload %s: %d runs, failure share %.6f\n", wl, len(rs), failShare(rs))
		for _, m := range spec.EndToEnd {
			var v []float64
			for _, r := range rs {
				if x, ok := r.Result.Metrics[m.Name]; ok {
					v = append(v, x.Value)
				}
			}
			q1, med, q3 := quartiles(v)
			sp := math.Abs((q3 - q1) / med)
			flag := "ok"
			switch {
			case sp > m.Bound:
				flag = "SPREAD ABOVE BOUND"
			case sp > m.Bound/3:
				flag = "above a third of the bound"
			}
			fmt.Fprintf(w, "  %-14s median %-12.5g q1 %-12.5g q3 %-12.5g spread %6.2f%% (bound %.0f%%) %s\n",
				m.Name, med, q1, q3, 100*sp, 100*m.Bound, flag)
		}
	}
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark definition with the metric bounds")
	spreadMode := flag.Bool("spread", false, "print the spread of one set of runs instead of comparing two")
	flag.Parse()
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if *spreadMode {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: compare -bench BENCHMARK.json -spread runs.jsonl")
			os.Exit(2)
		}
		runs, err := readRuns(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
		spread(os.Stdout, spec, runs)
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare -bench BENCHMARK.json parent.jsonl change.jsonl")
		os.Exit(2)
	}
	parent, err := readRuns(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	change, err := readRuns(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	worse, err := compare(os.Stdout, spec, parent, change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}
