package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's origin. req identifies the user action the span
// belongs to (0 when the layer cannot know it, as on the server side of
// the wire, which carries no request identity); parent is the causing
// span's id. Async spans (prefetch batches) run beside the action rather
// than blocking it, so they never count as a blocking child.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Async  bool   `json:"async,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the whole traced phase; they are
// written out once the phase ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines under dir.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once.
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range clipped {
		switch {
		case !open:
			curS, curE, open = v[0], v[1], true
		case v[0] <= curE:
			curE = max(curE, v[1])
		default:
			total += curE - curS
			curS, curE = v[0], v[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// blocking children cover; overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		if !c.Async {
			iv = append(iv, [2]int64{c.Start, c.End})
		}
	}
	return parent.dur() - covered(parent.Start, parent.End, iv)
}

// spanIndex groups spans by parent for self-time and breakdown passes.
type spanIndex struct {
	byParent map[uint64][]span
	byName   map[string][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byParent: map[uint64][]span{}, byName: map[string][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.byParent[s.Parent] = append(ix.byParent[s.Parent], s)
		}
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
	}
	return ix
}

func (ix spanIndex) durations(name string) dist {
	ss := ix.byName[name]
	v := make([]int64, len(ss))
	for i, s := range ss {
		v[i] = s.dur()
	}
	return newDist(v)
}

// selfDurations returns the self times of every span called name.
func (ix spanIndex) selfDurations(name string) dist {
	ss := ix.byName[name]
	v := make([]int64, len(ss))
	for i, s := range ss {
		v[i] = selfTime(s, ix.byParent[s.ID])
	}
	return newDist(v)
}
