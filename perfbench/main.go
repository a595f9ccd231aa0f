// Command perfbench is the repository's wall-clock benchmark: it starts a
// 2-shard MINOS fleet on loopback TCP inside this process, drives one of
// three workloads against it for a fixed time, checks every answer, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload web|present|search --seed N --seconds S --trace 0|1
//
// --trace 0 reports the gated end-to-end metrics. --trace 1 runs the
// workload twice, untraced and then traced (half the time each), reports
// the per-layer metrics, prints the blocking-path breakdown per action
// kind and the tracing overhead, and writes the spans under
// .bench_build/perfbench/. The process exits 1 on any wrong answer.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minos/internal/wire"
)

// setupRepeats is how many times a --trace 0 run sets the system up; the
// reported setup_s is the median.
const setupRepeats = 3

// prepared is a system set up, warmed and ready for its clock to start.
type prepared struct {
	wl    string
	seed  uint64
	sys   *system
	rf    *refs
	plan  *searchPlan
	users []*webUser
	setup time.Duration // system set-up and warm-up, without reference building

	// Miniatures the traced backends saw that failed their check.
	badMinis atomic.Int64
	badMu    sync.Mutex
	badErr   string
}

func (p *prepared) checkMinis(res []wire.MiniatureResult) {
	if err := p.rf.checkMiniatures(res); err != nil {
		p.badMinis.Add(1)
		p.badMu.Lock()
		if p.badErr == "" {
			p.badErr = err.Error()
		}
		p.badMu.Unlock()
	}
}

// prepare builds the fleet and everything the workload needs, builds the
// reference answers, and warms every cache.
// A later set-up of the same workload and seed reuses prev's references:
// the fleet and the inputs are the same.
func prepare(wl string, seed uint64, tr *tracer, run time.Duration, prev *prepared) (*prepared, error) {
	p := &prepared{wl: wl, seed: seed}
	t0 := time.Now()
	sys, err := startFleet(tr)
	if err != nil {
		return nil, err
	}
	p.sys = sys
	fail := func(err error) (*prepared, error) {
		sys.close()
		return nil, err
	}
	switch wl {
	case "web":
		if err := sys.startGateway(webSessions, runtime.NumCPU(), p.checkMinis); err != nil {
			return fail(err)
		}
	default:
		if err := sys.dialClient(); err != nil {
			return fail(err)
		}
	}
	if wl == "search" {
		preloadIndex(sys, seed, max(1, int(searchPublishRate*run.Seconds()/4)))
	}
	r0 := time.Now()
	var plan *searchPlan
	if prev != nil {
		p.rf, plan = prev.rf, prev.plan
	} else {
		if p.rf, err = buildRefs(sys); err != nil {
			return fail(err)
		}
		if wl == "search" {
			if plan, err = planSearch(sys, seed); err != nil {
				return fail(err)
			}
		}
	}
	if plan != nil {
		if p.plan, err = plan.withFresh(sys, seed, run); err != nil {
			return fail(err)
		}
	}
	refTime := time.Since(r0)

	switch wl {
	case "web":
		if err := warmMiniatures(context.Background(), sys.pool[0], p.rf); err != nil {
			return fail(fmt.Errorf("warm: %w", err))
		}
		p.users = newWebUsers(sys, seed)
		if err := warmWeb(sys, p.rf, p.users); err != nil {
			return fail(err)
		}
	case "present":
		if err := warmMiniatures(context.Background(), sys.cc, p.rf); err != nil {
			return fail(fmt.Errorf("warm: %w", err))
		}
		if err := warmPresent(sys, p.rf); err != nil {
			return fail(fmt.Errorf("warm: %w", err))
		}
	case "search":
		if err := warmSearch(sys, p.plan); err != nil {
			return fail(fmt.Errorf("warm: %w", err))
		}
	}
	p.setup = time.Since(t0) - refTime
	return p, nil
}

// measure runs the prepared workload for d and returns the phase. closed
// runs the web users closed-loop (the --calibrate probe).
func (p *prepared) measure(d time.Duration, closed bool) *phase {
	runtime.GC()
	ph := &phase{window: d, before: snapshot(p.sys)}
	start := time.Now()
	deadline := start.Add(d)
	ph.start = start
	boundsDone := make(chan []reading, 1)
	go func() { boundsDone <- sampleBounds(start, d, windowSlices) }()
	var recs []*recorder
	switch p.wl {
	case "web":
		recs = runWeb(p.sys, p.rf, p.users, p.seed, start, deadline, closed)
	case "present":
		recs = runPresent(p.sys, p.rf, p.seed, start, deadline)
	case "search":
		recs = runSearch(p.sys, p.plan, p.seed, start, deadline)
	}
	ph.bounds = <-boundsDone
	ph.after = snapshot(p.sys)
	ph.out = merge(recs)
	if n := p.badMinis.Load(); n > 0 {
		ph.out.failed += n
		ph.out.errs = append(ph.out.errs, "miniature: "+p.badErr)
	}
	if p.sys.tr != nil {
		ph.spans = p.sys.tr.all()
	}
	return ph
}

func main() { os.Exit(run()) }

func run() int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fl.String("workload", "", "workload: web, present or search")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	calibrate := fl.Bool("calibrate", false, "web only: closed-loop saturation probe instead of the Poisson schedule")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *wl != "web" && *wl != "present" && *wl != "search" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if procs := runtime.NumCPU(); runtime.GOMAXPROCS(0) > procs {
		runtime.GOMAXPROCS(procs)
	}
	d := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", *wl, *seed, *seconds, *trace)
	printProvenance(*wl, *seed, *seconds, *trace)

	var res result
	var err error
	switch {
	case *calibrate:
		err = runCalibrate(*wl, *seed, d)
		if err == nil {
			return 0
		}
	case *trace == 0:
		res, err = runEndToEnd(*wl, *seed, d)
	default:
		res, err = runTraced(*wl, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the gated end-to-end metrics, as BENCHMARK.json lists them.
var e2eUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "action_p50_ms": "ms",
	"cpu_us_per_op": "us", "allocs_per_op": "count", "max_rss_mib": "MiB",
}

func runEndToEnd(wl string, seed uint64, d time.Duration) (result, error) {
	var setups []float64
	var p *prepared
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.sys.close()
		}
		var err error
		if p, err = prepare(wl, seed, nil, d, p); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, p.setup.Seconds())
	}
	defer p.sys.close()
	ph := p.measure(d, false)
	e2e := ph.endToEnd()
	sort.Float64s(setups)
	e2e["setup_s"] = setups[len(setups)/2]
	fmt.Printf("setup: %d set-ups, median %.4f s (%s)\n", len(setups), e2e["setup_s"], fmtList(setups, "%.4f"))
	report(ph)
	res := result{Correct: ph.out.failed == 0, Attempted: ph.out.attempted, Failed: ph.out.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(e2eUnits))
	for name := range e2eUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Metrics[name] = metric{Value: e2e[name], Unit: e2eUnits[name]}
		fmt.Printf("metric %-14s %14.4f %s\n", name, e2e[name], e2eUnits[name])
	}
	return res, nil
}

// runTraced measures the workload untraced and then traced, half the time
// each, on two fresh systems, and reports the per-layer metrics.
func runTraced(wl string, seed uint64, d time.Duration) (result, error) {
	half := d / 2
	p, err := prepare(wl, seed, nil, half, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	plain := p.measure(half, false)
	p.sys.close()
	fmt.Println("-- untraced half --")
	report(plain)

	tr := newTracer()
	p, err = prepare(wl, seed, tr, half, p)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer p.sys.close()
	tr.reset() // set-up and warm-up spans are not the run's
	traced := p.measure(half, false)
	fmt.Println("-- traced half --")
	report(traced)
	layers := traced.perLayer(p.sys)
	pe, te := plain.endToEnd(), traced.endToEnd()
	layers["trace.overhead_p50_ratio"] = ratio(te["action_p50_ms"], pe["action_p50_ms"])
	layers["trace.overhead_cpu_ratio"] = ratio(te["cpu_us_per_op"], pe["cpu_us_per_op"])
	fmt.Printf("tracing overhead: action p50 %.4f -> %.4f ms (x%.3f), cpu/op %.1f -> %.1f us (x%.3f), spans kept %d\n",
		pe["action_p50_ms"], te["action_p50_ms"], layers["trace.overhead_p50_ratio"],
		pe["cpu_us_per_op"], te["cpu_us_per_op"], layers["trace.overhead_cpu_ratio"], len(traced.spans))
	breakdown(os.Stdout, traced.spans)
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", wl, seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Printf("spans written to %s\n", path)
	}

	failed := plain.out.failed + traced.out.failed
	res := result{Correct: failed == 0, Attempted: plain.out.attempted + traced.out.attempted, Failed: failed,
		Metrics: map[string]metric{}}
	for _, name := range perLayerNames {
		v, ok := layers[name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s not computed", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: perLayerUnit(name)}
		fmt.Printf("layer %-40s %14.4f %s\n", name, v, perLayerUnit(name))
	}
	return res, nil
}

// runCalibrate measures the web workload closed-loop: every user issues
// its next action as soon as the last one answers. The ops/s it prints is
// the gateway's saturation rate, against which webRate was chosen.
func runCalibrate(wl string, seed uint64, d time.Duration) error {
	if wl != "web" {
		return errors.New("--calibrate applies to the web workload")
	}
	p, err := prepare(wl, seed, nil, d, nil)
	if err != nil {
		return err
	}
	defer p.sys.close()
	ph := p.measure(d, true)
	report(ph)
	fmt.Printf("calibration: saturation %.1f actions/s closed-loop with %d users (the web workload runs at %.0f)\n",
		ph.endToEnd()["ops_per_s"], webSessions, webRate)
	return nil
}

// report prints every end-to-end figure of the phase by name with its
// unit, including the per-action figures the gated metrics pool.
func report(ph *phase) {
	o := ph.out
	fmt.Printf("attempted %d, failed %d, error_ratio %.6f\n", o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	for _, e := range o.errs {
		fmt.Printf("  wrong answer or failure: %s\n", e)
	}
	for _, k := range []struct{ name, kind string }{
		{"step", "step"}, {"query", "query"}, {"open", "open"}, {"mini", "mini"}, {"ttfa", "listen"}, {"publish", "publish"},
	} {
		d := o.samples[k.kind]
		if len(d) == 0 {
			fmt.Printf("%s_p50_ms n/a (the workload issues no %s actions)\n", k.name, k.kind)
			continue
		}
		fmt.Printf("%s_p50_ms %.4f ms, %s_p99_ms: %s\n", k.name, ms(d.at(50)), k.name, d.describeTail(time.Millisecond, "ms"))
	}
	if len(o.late) > 0 {
		fmt.Printf("late_p99_ms: %s (open-loop generator lateness)\n", o.late.describeTail(time.Millisecond, "ms"))
	} else {
		fmt.Println("late_p99_ms n/a (closed loop)")
	}
	acts := o.actions()
	fmt.Printf("action_p99_ms over the whole window: %s\n", acts.describeTail(time.Millisecond, "ms"))
	for i, s := range ph.slices() {
		_, beyond := rankOf(s.n, 99)
		fmt.Printf("  slice %d: %d actions, %.1f ops/s, p50 %.4f ms, p99 %.4f ms (%d beyond), %.1f cpu us/op, %.1f allocs/op\n",
			i, s.n, s.ops, s.p50, s.p99, beyond, s.cpuPerOp, s.allocsPerOp)
	}
	e := ph.endToEnd()
	fmt.Printf("median slice: action_p50_ms %.4f ms, action_p99_ms %.4f ms (not gated), ops_per_s %.2f 1/s, cpu_us_per_op %.2f us, allocs_per_op %.1f count, max_rss_mib %.1f MiB\n",
		e["action_p50_ms"], e["action_p99_ms"], e["ops_per_s"], e["cpu_us_per_op"], e["allocs_per_op"], e["max_rss_mib"])
}

func fmtList(v []float64, f string) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(s, " ")
}

// printProvenance prints the host and input facts every result is read
// against. Modelled device time appears only under model_ names.
func printProvenance(wl string, seed uint64, seconds float64, trace int) {
	params := map[string]any{"shards": fleetShards, "fillers": fleetFillers, "spoken": fleetSpoken}
	switch wl {
	case "web":
		params["sessions"] = webSessions
		params["loop"] = "open"
		params["rate_per_s"] = webRate
		params["http_conns"] = runtime.NumCPU()
		params["gateway_pool"], params["gateway_slots"], params["prefetch_depth"] = gatewayPool, gatewaySlots, gatewayPrefetch
	case "present":
		params["sessions"] = presentSessions
		params["loop"] = "closed"
		params["stream_window"] = presentWindow
	case "search":
		params["sessions"] = searchSessions
		params["loop"] = "closed"
		params["preload_docs"] = searchPreload
		params["publish_per_s_per_shard"] = searchPublishRate
	}
	prov := map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": commit(), "source_sha256": sourceDigest(),
		"workload": wl, "seed": seed, "seconds": seconds, "trace": trace, "params": params,
	}
	b, _ := json.Marshal(prov) // map of plain values: cannot fail
	fmt.Printf("provenance %s\n", b)
}

// commit names the checked-out commit when the tree is a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git work tree)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source file and module file under the
// working directory, so results from a tree without git history still
// name the code they measured.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
