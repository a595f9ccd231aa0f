package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {11, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := c.want; p > 0 {
			if _, beyond := rankOf(c.n, p); beyond < 10 {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, p, beyond)
			}
		}
	}
	// Exactly at the edge: p99 of 1000 samples leaves 10 beyond.
	if idx, beyond := rankOf(1000, 99); idx != 989 || beyond != 10 {
		t.Errorf("rankOf(1000, 99) = %d, %d; want 989, 10", idx, beyond)
	}
}

func TestTailIsReportedWithItsSampleCount(t *testing.T) {
	v := make([]int64, 500)
	for i := range v {
		v[i] = int64(i+1) * int64(time.Millisecond)
	}
	d := newDist(v)
	s := d.describeTail(time.Millisecond, "ms")
	// 500 samples cannot support p99 (5 beyond); p95 leaves 25.
	for _, want := range []string{"p95 = 475.0000 ms", "n=500", "25 beyond", "p99 unsupported"} {
		if !strings.Contains(s, want) {
			t.Errorf("describeTail = %q, missing %q", s, want)
		}
	}
	if got := d.tail(); got != 475*int64(time.Millisecond) {
		t.Errorf("tail() = %d, want the p95 value", got)
	}
	big := newDist(make([]int64, 5000))
	if s := big.describeTail(time.Millisecond, "ms"); !strings.Contains(s, "p99 = ") || !strings.Contains(s, "50 beyond") {
		t.Errorf("5000 samples: %q, want p99 with 50 beyond", s)
	}
}

func TestOpenLoopTimesFromDueAndCountsLateness(t *testing.T) {
	// Three actions due 0, 1 and 2 ms after start, each taking 6 ms: the
	// second and third queue behind the first, so their latency counts the
	// wait from when they were due, and their lateness is that wait.
	start := time.Now().Add(5 * time.Millisecond)
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	const work = 6 * time.Millisecond
	rec := newRecorder()
	var issued []time.Time
	act := func(dueAt time.Time) (time.Time, error) {
		issued = append(issued, time.Now())
		time.Sleep(work)
		return time.Now(), nil
	}
	openLoop(start, due, make(chan struct{}), act, rec, func() string { return "step" })
	if rec.attempted != 3 || len(rec.samples["step"]) != 3 || len(rec.late) != 3 {
		t.Fatalf("attempted %d, samples %d, late %d; want 3 each", rec.attempted, len(rec.samples["step"]), len(rec.late))
	}
	if issued[0].Before(start) {
		t.Errorf("first action issued %v before it was due", start.Sub(issued[0]))
	}
	for i, lat := range rec.samples["step"] {
		// Completed no earlier than (i+1) work periods after start, timed
		// from its own due time.
		min := time.Duration(i+1)*work - due[i]
		if time.Duration(lat) < min {
			t.Errorf("action %d: latency %v < %v: not timed from its due time", i, time.Duration(lat), min)
		}
		wantLate := time.Duration(i)*work - due[i]
		if l := time.Duration(rec.late[i]); l < wantLate || l > wantLate+50*time.Millisecond {
			t.Errorf("action %d: lateness %v, want about %v", i, l, wantLate)
		}
	}
}

func TestOpenLoopFailuresCountAgainstAttempts(t *testing.T) {
	rec := newRecorder()
	n := 0
	act := func(time.Time) (time.Time, error) {
		n++
		if n == 2 {
			return time.Now(), errors.New("wrong answer")
		}
		return time.Now(), nil
	}
	openLoop(time.Now(), []time.Duration{0, 0, 0}, make(chan struct{}), act, rec, func() string { return "query" })
	if rec.attempted != 3 || rec.failed != 1 || len(rec.samples["query"]) != 2 {
		t.Fatalf("attempted %d failed %d samples %d; want 3, 1, 2", rec.attempted, rec.failed, len(rec.samples["query"]))
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	due := poissonSchedule(rng, 1000, 10*time.Second)
	if n := len(due); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals in 10 s at 1000/s", n)
	}
	if !sort.SliceIsSorted(due, func(i, j int) bool { return due[i] < due[j] }) {
		t.Fatal("schedule not increasing")
	}
	if poissonSchedule(rng, 0, time.Second) != nil {
		t.Fatal("rate 0 must give an empty schedule")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"one", []span{{Start: 110, End: 130}}, 80},
		{"disjoint", []span{{Start: 110, End: 130}, {Start: 150, End: 160}}, 70},
		{"overlapping", []span{{Start: 110, End: 140}, {Start: 120, End: 150}}, 60},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"chain", []span{{Start: 110, End: 120}, {Start: 120, End: 130}, {Start: 125, End: 140}}, 70},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 260}}, 70},
		{"async ignored", []span{{Start: 110, End: 190, Async: true}}, 100},
		{"outside", []span{{Start: 10, End: 20}, {Start: 300, End: 400}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// frame builds one framed message: length, then (unless hello) the
// correlation id, then the op/status byte and a body.
func frame(hello bool, corr uint32, code byte, body int) []byte {
	var msg []byte
	if !hello {
		msg = binary.BigEndian.AppendUint32(msg, corr)
	}
	msg = append(msg, code)
	msg = append(msg, make([]byte, body)...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(msg))), msg...)
}

func TestFrameScannerAcrossChunking(t *testing.T) {
	stream := append(frame(true, 0, 10, 4), frame(false, 7, 11, 100)...)
	stream = append(stream, frame(false, 8, 3, 0)...)
	stream = append(stream, frame(false, 9, 17, 3000)...)
	type ev struct {
		corr  uint32
		code  byte
		hello bool
	}
	want := []ev{{0, 10, true}, {7, 11, false}, {8, 3, false}, {9, 17, false}}
	for _, chunk := range []int{1, 2, 3, 5, 9, 64, len(stream)} {
		var sc frameScanner
		var heads, ends []ev
		for off := 0; off < len(stream); off += chunk {
			sc.feed(stream[off:min(off+chunk, len(stream))],
				func(c uint32, b byte, h bool) { heads = append(heads, ev{c, b, h}) },
				func(c uint32, b byte, h bool) { ends = append(ends, ev{c, b, h}) })
		}
		if len(heads) != len(want) || len(ends) != len(want) {
			t.Fatalf("chunk %d: %d heads, %d ends; want %d", chunk, len(heads), len(ends), len(want))
		}
		for i := range want {
			if heads[i] != want[i] || ends[i] != want[i] {
				t.Errorf("chunk %d frame %d: head %+v end %+v, want %+v", chunk, i, heads[i], ends[i], want[i])
			}
		}
	}
}

func TestRouteOf(t *testing.T) {
	for path, want := range map[string]struct {
		sid  uint64
		kind string
	}{
		"/session/7/step":           {7, "step"},
		"/session/12/mini/1003.png": {12, "mini"},
		"/session/3/view.png":       {3, "view"},
		"/metrics":                  {0, "other"},
	} {
		sid, kind := routeOf(path)
		if sid != want.sid || kind != want.kind {
			t.Errorf("routeOf(%q) = %d, %q; want %d, %q", path, sid, kind, want.sid, want.kind)
		}
	}
}

// The metric names the program reports must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2eUnits))
	}
	for _, m := range spec.EndToEnd {
		if u, ok := e2eUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s [%s]: program reports %q", m.Name, m.Unit, u)
		}
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerNames))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayerNames) && (m.Name != perLayerNames[i] || m.Unit != perLayerUnit(m.Name)) {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]",
				i, m.Name, m.Unit, perLayerNames[i], perLayerUnit(perLayerNames[i]))
		}
	}
}
