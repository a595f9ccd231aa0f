package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"minos/internal/cluster"
	"minos/internal/disk"
	"minos/internal/gateway"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/server"
	"minos/internal/workstation"
)

// counters is a snapshot of every count the layers keep; a phase reports
// the difference between two snapshots.
type counters struct {
	srv                                []server.Stats
	dev                                []disk.Stats
	idx                                []index.StoreStats
	hub                                gateway.Stats
	pf                                 workstation.PrefetchStats
	clu                                [4]int64 // failovers, reroutes, refetches, reconnects
	tapIn, tapOut, framesIn, framesOut int64
	ms                                 runtime.MemStats
	cpu                                time.Duration
	rss                                int64 // KiB, process peak
}

func cpuTime() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func snapshot(sys *system) counters {
	var c counters
	for _, srv := range sys.servers() {
		c.srv = append(c.srv, srv.Stats())
		c.dev = append(c.dev, srv.Archiver().Device().Stats())
		c.idx = append(c.idx, srv.ContentIndex().Stats())
	}
	if sys.hub != nil {
		c.hub = sys.hub.Stats()
		for _, sid := range sys.sids {
			if ws, err := sys.hub.Workstation(sid); err == nil {
				st := ws.PrefetchStats()
				c.pf.Hits += st.Hits
				c.pf.Misses += st.Misses
				c.pf.Prefetched += st.Prefetched
				c.pf.Dropped += st.Dropped
			}
		}
	}
	clients := append([]*cluster.Client(nil), sys.pool...)
	if sys.cc != nil {
		clients = append(clients, sys.cc)
	}
	for _, cc := range clients {
		c.clu[0] += cc.Failovers()
		c.clu[1] += cc.Reroutes()
		c.clu[2] += cc.Refetches()
		c.clu[3] += cc.Reconnects()
	}
	if sys.tap != nil {
		c.tapIn, c.tapOut = sys.tap.bytesIn.Load(), sys.tap.bytesOut.Load()
		c.framesIn, c.framesOut = sys.tap.framesIn.Load(), sys.tap.framesOut.Load()
	}
	runtime.ReadMemStats(&c.ms)
	c.cpu, c.rss = cpuTime()
	return c
}

// phase is one measured window: its outcome and the counter snapshots
// around it.
type phase struct {
	out           outcome
	before, after counters
	window        time.Duration
	spans         []span

	// The window is cut into equal slices; bounds holds the process CPU
	// time and allocation count read at each slice boundary.
	start  time.Time
	bounds []reading
}

// windowSlices is how many equal slices a measured window is cut into.
// Each gated figure is computed per slice and the median slice is
// reported, so a few seconds of interference from outside the process
// move it little.
const windowSlices = 10

type reading struct {
	cpu     time.Duration
	mallocs uint64
}

func read() reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := cpuTime()
	return reading{cpu: cpu, mallocs: ms.Mallocs}
}

// sampleBounds takes a reading at each slice boundary of [start,
// start+window] and returns them once the last is taken.
func sampleBounds(start time.Time, window time.Duration, slices int) []reading {
	out := make([]reading, slices+1)
	for i := range out {
		time.Sleep(time.Until(start.Add(window * time.Duration(i) / time.Duration(slices))))
		out[i] = read()
	}
	return out
}

// sliceFigures are one slice's gated figures.
type sliceFigures struct {
	ops, p50, p99, cpuPerOp, allocsPerOp float64
	n                                    int
}

func (p *phase) slices() []sliceFigures {
	k := len(p.bounds) - 1
	if k < 1 {
		return nil
	}
	w := p.window / time.Duration(k)
	lats := make([][]int64, k)
	for _, s := range p.out.timed {
		i := int(time.Duration(s.end-p.start.UnixNano()) / w)
		if i >= 0 && i < k {
			lats[i] = append(lats[i], s.lat)
		}
	}
	out := make([]sliceFigures, k)
	for i := range out {
		d := newDist(lats[i])
		n := float64(len(d))
		out[i] = sliceFigures{
			ops: n / w.Seconds(), p50: ms(d.at(50)), p99: ms(d.tail()), n: len(d),
			cpuPerOp:    ratio(float64(p.bounds[i+1].cpu-p.bounds[i].cpu)/1e3, n),
			allocsPerOp: ratio(float64(p.bounds[i+1].mallocs-p.bounds[i].mallocs), n),
		}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// completed counts session actions finished inside the window.
func (p *phase) completed() int64 { return int64(len(p.out.actions())) }

// endToEnd computes the end-to-end figures of a phase, each the median
// over the window's slices. action_p99_ms is not gated: on a shared 2-CPU
// host the web workload's tail moved 29-100% between runs (time stolen by
// neighbouring machines), wider than any bound allowed; it is printed on
// every run and reported by the traced run.
func (p *phase) endToEnd() map[string]float64 {
	sl := p.slices()
	col := func(f func(sliceFigures) float64) float64 {
		v := make([]float64, len(sl))
		for i, s := range sl {
			v[i] = f(s)
		}
		return median(v)
	}
	return map[string]float64{
		"ops_per_s":     col(func(s sliceFigures) float64 { return s.ops }),
		"action_p50_ms": col(func(s sliceFigures) float64 { return s.p50 }),
		"action_p99_ms": col(func(s sliceFigures) float64 { return s.p99 }),
		"cpu_us_per_op": col(func(s sliceFigures) float64 { return s.cpuPerOp }),
		"allocs_per_op": col(func(s sliceFigures) float64 { return s.allocsPerOp }),
		"max_rss_mib":   float64(p.after.rss) / 1024,
	}
}

// sum adds f over the shards' before/after differences.
func sumShards[T any](b, a []T, f func(T) int64) int64 {
	var s int64
	for i := range a {
		s += f(a[i]) - f(b[i])
	}
	return s
}

// perLayer computes the traced per-layer metrics. Span-derived figures
// come from the phase's spans; counts from the snapshot differences.
func (p *phase) perLayer(sys *system) map[string]float64 {
	m := map[string]float64{}
	ix := indexSpans(p.spans)
	b, a := p.before, p.after
	ops := float64(p.completed())

	// gateway
	steps := float64(a.hub.Steps - b.hub.Steps)
	m["gateway.handler_step_p50_us"] = us(ix.durations("gateway.step").at(50))
	m["gateway.handler_step_p99_us"] = us(ix.durations("gateway.step").tail())
	m["gateway.handler_open_p50_us"] = us(ix.durations("gateway.open").at(50))
	m["gateway.self_step_p50_us"] = us(ix.selfDurations("gateway.step").at(50))
	hits, miss := float64(a.hub.PNGHits-b.hub.PNGHits), float64(a.hub.PNGMisses-b.hub.PNGMisses)
	m["gateway.png_hit_ratio"] = ratio(hits, hits+miss)
	m["gateway.png_misses"] = miss
	m["gateway.push_bytes_per_step"] = ratio(float64(a.hub.PushBytes-b.hub.PushBytes), steps)
	m["gateway.client_queue_p99_us"] = us(p.out.queueWait.tail())

	// workstation (+core)
	pfHits, pfMiss := float64(a.pf.Hits-b.pf.Hits), float64(a.pf.Misses-b.pf.Misses)
	m["workstation.prefetch_hit_ratio"] = ratio(pfHits, pfHits+pfMiss)
	m["workstation.prefetch_waste_ratio"] = ratio(float64(a.pf.Dropped-b.pf.Dropped), float64(a.pf.Prefetched-b.pf.Prefetched))
	m["workstation.backend_calls_per_step"] = ix.callsPer("gateway.step")
	m["workstation.backend_calls_per_open"] = max(ix.callsPer("gateway.open"), ix.callsPer("bench.open"))
	// OpenObject plus render minus backend calls: measured where the
	// benchmark calls the session itself (present); under the gateway the
	// handler span folds it together with the view's PNG encode.
	if sys.hub == nil {
		m["workstation.open_self_p50_us"] = us(ix.selfDurations("bench.open").at(50))
		m["workstation.open_self_p99_us"] = us(ix.selfDurations("bench.open").tail())
	} else {
		m["workstation.open_self_p50_us"], m["workstation.open_self_p99_us"] = 0, 0
	}

	// cluster
	for _, k := range []string{"miniatures", "query", "descriptor", "piece", "voice_open"} {
		d := ix.durations("cluster." + k)
		if k == "miniatures" {
			d = newDist(append(append([]int64(nil), d...), ix.durations("cluster.miniatures_prefetch")...))
		}
		m["cluster.call_p50_us."+k] = us(d.at(50))
		m["cluster.call_p99_us."+k] = us(d.tail())
	}
	m["cluster.failovers"] = float64(a.clu[0] - b.clu[0])
	m["cluster.reroutes"] = float64(a.clu[1] - b.clu[1])
	m["cluster.refetches"] = float64(a.clu[2] - b.clu[2])
	m["cluster.reconnects"] = float64(a.clu[3] - b.clu[3])

	// wire: client span minus server residence, as a difference of medians
	// (the wire carries no request id to pair them call by call).
	for cl, sv := range map[string]string{"miniatures": "miniatures", "query": "query_planned", "piece": "read_piece"} {
		c := m["cluster.call_p50_us."+cl]
		r := us(ix.durations("server." + sv).at(50))
		m["wire.transit_p50_us."+cl] = 0
		if c > 0 && r > 0 {
			m["wire.transit_p50_us."+cl] = c - r
		}
	}
	m["wire.frames_per_op"] = ratio(float64(a.framesIn-b.framesIn+a.framesOut-b.framesOut), ops)
	m["wire.bytes_in_per_op"] = ratio(float64(a.tapIn-b.tapIn), ops)
	m["wire.bytes_out_per_op"] = ratio(float64(a.tapOut-b.tapOut), ops)
	m["wire.stream_chunks_per_listen"] = ratio(float64(p.out.chunks), float64(p.out.listens))

	// server
	for _, k := range []string{"miniatures", "query_planned", "descriptor", "read_piece", "voice_open"} {
		d := ix.durations("server." + k)
		m["server.residence_p50_us."+k] = us(d.at(50))
		m["server.residence_p99_us."+k] = us(d.tail())
	}
	st := func(f func(server.Stats) int64) float64 { return float64(sumShards(b.srv, a.srv, f)) }
	eh, em := st(func(s server.Stats) int64 { return s.EncodedHits }), st(func(s server.Stats) int64 { return s.EncodedMiss })
	m["server.encoded_hit_ratio"] = ratio(eh, eh+em)
	ch, cm := st(func(s server.Stats) int64 { return s.CacheHits }), st(func(s server.Stats) int64 { return s.CacheMiss })
	m["server.block_cache_hit_ratio"] = ratio(ch, ch+cm)
	m["server.readahead_blocks_per_op"] = ratio(st(func(s server.Stats) int64 { return s.ReadAheadBlocks }), ops)
	m["server.bytes_out_per_op"] = ratio(st(func(s server.Stats) int64 { return s.BytesOut }), ops)
	// Pool counters are process-wide: read them off one shard.
	pa := float64(a.srv[0].PoolAllocs - b.srv[0].PoolAllocs)
	pr := float64(a.srv[0].PoolRecycled - b.srv[0].PoolRecycled)
	m["server.pool_recycle_ratio"] = ratio(pr, pr+pa)
	busy := sumShards(b.dev, a.dev, func(s disk.Stats) int64 { return int64(s.Busy) })
	m["model_device_ms_per_op"] = ratio(ms(busy), ops)

	// sched
	m["sched.seek_waits_per_op"] = ratio(st(func(s server.Stats) int64 { return s.DeviceWaits }), ops)
	m["sched.seek_wait_us_per_op"] = ratio(st(func(s server.Stats) int64 { return s.DeviceWaitNanos })/1e3, ops)
	m["sched.server_sheds"] = st(func(s server.Stats) int64 { return s.Shed })
	m["sched.gateway_sheds"] = float64(a.hub.Shed - b.hub.Shed)

	// index: the run's query log replayed on each shard's Store.Search.
	search, hits := replayQueries(sys, p.out.queries)
	m["index.search_p50_us"] = us(search.at(50))
	m["index.search_p99_us"] = us(search.tail())
	m["index.hits_per_query"] = hits
	seals := int64(-1)
	var segs, sealed, merges int64
	for i := range a.idx {
		d := a.idx[i].Sealed - b.idx[i].Sealed
		if seals < 0 || d < seals {
			seals = d
		}
		sealed += d
		merges += a.idx[i].Merges - b.idx[i].Merges
		segs += int64(a.idx[i].Segments)
	}
	m["index.segments"] = float64(segs)
	m["index.seals"] = float64(sealed)
	m["index.seals_min_shard"] = float64(seals)
	m["index.merges"] = float64(merges)

	// archiver / disk
	opens := float64(len(p.out.samples["open"]))
	m["disk.reads_per_open"] = ratio(float64(sumShards(b.dev, a.dev, func(s disk.Stats) int64 { return s.Reads })), opens)
	m["disk.writes_per_publish"] = ratio(float64(sumShards(b.dev, a.dev, func(s disk.Stats) int64 { return s.Writes })), float64(len(p.out.samples["publish"])))

	// runtime
	secs := p.window.Seconds()
	m["runtime.gc_cycles_per_s"] = float64(a.ms.NumGC-b.ms.NumGC) / secs
	m["runtime.gc_pause_p99_us"] = us(gcPauses(b.ms, a.ms).tail())
	m["runtime.cpu_busy_ratio"] = ratio(float64(a.cpu-b.cpu), float64(p.window)*float64(runtime.GOMAXPROCS(0)))
	m["runtime.heap_bytes_per_op"] = ratio(float64(a.ms.TotalAlloc-b.ms.TotalAlloc), ops)

	// load generator
	m["loadgen.late_p99_ms"] = ms(p.out.late.tail())
	m["e2e.action_p99_ms"] = p.endToEnd()["action_p99_ms"]
	m["e2e.error_ratio"] = ratio(float64(p.out.failed), float64(p.out.attempted))
	return m
}

// callsPer counts blocking backend calls under spans named parent, per span.
func (ix spanIndex) callsPer(parent string) float64 {
	ps := ix.byName[parent]
	n := 0
	for _, s := range ps {
		for _, c := range ix.byParent[s.ID] {
			if strings.HasPrefix(c.Name, "cluster.") && !c.Async {
				n++
			}
		}
	}
	return ratio(float64(n), float64(len(ps)))
}

// gcPauses returns the pause times of the GC cycles between two snapshots
// (the runtime keeps the last 256).
func gcPauses(b, a runtime.MemStats) dist {
	var v []int64
	first := b.NumGC + 1
	if a.NumGC >= 256 && first < a.NumGC-255 {
		first = a.NumGC - 255
	}
	for n := first; n <= a.NumGC; n++ {
		v = append(v, int64(a.PauseNs[(n+255)%256]))
	}
	return newDist(v)
}

// replayQueries times Store.Search for every logged query on every shard,
// after the run, and reports the distribution with the mean hit count.
func replayQueries(sys *system, qs []index.Query) (dist, float64) {
	if len(qs) == 0 {
		return nil, 0
	}
	const maxReplay = 20000
	if len(qs) > maxReplay {
		qs = qs[:maxReplay]
	}
	var v []int64
	var hits int
	buf := make([]object.ID, 0, 1024)
	for _, q := range qs {
		for _, srv := range sys.servers() {
			t0 := time.Now()
			buf = srv.ContentIndex().Search(q, buf[:0])
			v = append(v, int64(time.Since(t0)))
			hits += len(buf)
		}
	}
	return newDist(v), float64(hits) / float64(len(qs))
}

// breakdown prints, per action kind, the mean blocking-path split of the
// action's time across the layers, and names what is left unattributed.
func breakdown(w io.Writer, spans []span) {
	ix := indexSpans(spans)
	kinds := make([]string, 0)
	for name := range ix.byName {
		if strings.HasPrefix(name, "bench.") {
			kinds = append(kinds, strings.TrimPrefix(name, "bench."))
		}
	}
	sort.Strings(kinds)
	// Server residence per server op, for the estimate under each call.
	resid := map[string]float64{}
	for name := range ix.byName {
		if strings.HasPrefix(name, "server.") {
			resid[strings.TrimPrefix(name, "server.")] = ix.durations(name).mean()
		}
	}
	serverOp := map[string]string{"miniatures": "miniatures", "query": "query_planned", "descriptor": "descriptor",
		"piece": "read_piece", "voice_open": "voice_open", "voice_preview": "voice_preview", "mode": "miniatures"}
	for _, k := range kinds {
		tops := ix.byName["bench."+k]
		var e2e, handler, handlerSelf, connWait float64
		callTime := map[string]float64{}
		calls := map[string]float64{}
		for _, t := range tops {
			e2e += float64(t.dur())
			var under []span // backend calls, under the handler in web
			var waits [][2]int64
			for _, c := range ix.byParent[t.ID] {
				if strings.HasPrefix(c.Name, "client.") {
					waits = append(waits, [2]int64{c.Start, c.End})
					continue
				}
				if strings.HasPrefix(c.Name, "gateway.") {
					handler += float64(c.dur())
					handlerSelf += float64(selfTime(c, ix.byParent[c.ID]))
					under = append(under, ix.byParent[c.ID]...)
				} else {
					under = append(under, c)
				}
			}
			connWait += float64(covered(t.Start, t.End, waits))
			byKind := map[string][][2]int64{}
			for _, c := range under {
				if c.Async || !strings.HasPrefix(c.Name, "cluster.") {
					continue
				}
				ck := strings.TrimPrefix(c.Name, "cluster.")
				byKind[ck] = append(byKind[ck], [2]int64{c.Start, c.End})
				calls[ck]++
			}
			for ck, iv := range byKind {
				callTime[ck] += float64(covered(t.Start, t.End, iv))
			}
		}
		n := float64(len(tops))
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "breakdown %s: mean %.1f us over %d actions (blocking path)\n", k, e2e/n/1e3, len(tops))
		line := func(name string, v float64) {
			fmt.Fprintf(w, "  %-44s %10.1f us %6.1f%%\n", name, v/1e3, 100*ratio(v, e2e/n))
		}
		attributed := 0.0
		if connWait > 0 {
			line("HTTP client waiting for a connection", connWait/n)
			attributed += connWait / n
		}
		if handler > 0 {
			line("gateway handler self (HTTP, JSON, PNG, hub)", handlerSelf/n)
			attributed += handlerSelf / n
		}
		cks := make([]string, 0, len(callTime))
		for ck := range callTime {
			cks = append(cks, ck)
		}
		sort.Strings(cks)
		for _, ck := range cks {
			v := callTime[ck] / n
			line(fmt.Sprintf("cluster.%s (%.2f calls/action)", ck, calls[ck]/n), v)
			if r, ok := resid[serverOp[ck]]; ok {
				fmt.Fprintf(w, "    server residence per %s request (mean)   %10.1f us\n", serverOp[ck], r/1e3)
			}
			attributed += v
		}
		rest := e2e/n - attributed
		switch {
		case handler > 0:
			line("unattributed: HTTP client work and loopback transit", rest)
		case k == "open":
			line("unattributed: workstation self (materialize, render)", rest)
		case k == "listen":
			line("unattributed: first data frame after the stream header", rest)
		default:
			line("unattributed: load generator and routed-client merge", rest)
		}
	}
}
