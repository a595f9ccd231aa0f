package main

import (
	"fmt"
	"math/rand"
	"time"

	"minos/internal/index"
)

// recorder collects one load-generator goroutine's outcomes; goroutines
// never share one, and the phase merges them once every goroutine ended.
type recorder struct {
	samples   map[string][]int64 // latency in ns per action kind
	ends      map[string][]int64 // completion time (Unix ns), parallel to samples
	late      []int64            // open-loop lateness in ns
	queueWait []int64            // traced web: wait for an HTTP connection
	attempted int64
	failed    int64
	errs      []string
	chunks    int64 // voice chunks over completed listens
	listens   int64
	queries   []index.Query // the run's query log, replayed on the index
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]int64{}, ends: map[string][]int64{}}
}

// add records one completed action's latency and completion time.
func (r *recorder) add(kind string, ns int64, end time.Time) {
	r.samples[kind] = append(r.samples[kind], ns)
	r.ends[kind] = append(r.ends[kind], end.UnixNano())
}

func (r *recorder) fail(kind string, err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", kind, err))
	}
}

// deck deals its cards in a seeded shuffled order and reshuffles after
// each full pass, so every card is dealt equally often: the seed changes
// the order of a session's inputs, never their mix.
type deck[T any] struct {
	cards []T
	next  int
	rng   *rand.Rand
}

func newDeck[T any](cards []T, rng *rand.Rand) *deck[T] {
	return &deck[T]{cards: append([]T(nil), cards...), next: len(cards), rng: rng}
}

func (d *deck[T]) deal() T {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// actSpan is a traced action in flight: the benchmark's own span at the
// top of the action's span tree.
type actSpan struct {
	a     action
	kind  string
	start int64
}

// begin opens a traced action and points the session's traced backend at
// it; untraced it does nothing.
func (r *recorder) begin(tr *tracer, kind string, tb *tracedBackend) *actSpan {
	if tr == nil {
		return nil
	}
	s := &actSpan{a: action{req: tr.newID(), span: tr.newID()}, kind: kind, start: tr.now()}
	if tb != nil {
		tb.begin(&s.a)
	}
	return s
}

// end closes a traced action. A positive dur ends the span at start+dur
// (a listen's user-visible time is its time to first audio, not the drain).
func (r *recorder) end(tr *tracer, s *actSpan, tb *tracedBackend, dur int64) {
	if s == nil {
		return
	}
	if tb != nil {
		tb.end()
	}
	end := tr.now()
	if dur > 0 {
		end = s.start + dur
	}
	tr.add(span{ID: s.a.span, Req: s.a.req, Name: "bench." + s.kind, Start: s.start, End: end})
}

// outcome is the merged result of a phase's recorders.
type outcome struct {
	samples   map[string]dist
	timed     []timedSample // every session action, for the per-window figures
	late      dist
	queueWait dist
	attempted int64
	failed    int64
	errs      []string
	chunks    int64
	listens   int64
	queries   []index.Query
}

type timedSample struct{ lat, end int64 }

// sessionKinds are the actions users issue; the search writer's publishes
// are background ingestion and are reported on their own.
var sessionKinds = []string{"step", "query", "open", "mini", "listen"}

func merge(recs []*recorder) outcome {
	o := outcome{samples: map[string]dist{}}
	raw := map[string][]int64{}
	var late, qw []int64
	for _, r := range recs {
		for k, v := range r.samples {
			raw[k] = append(raw[k], v...)
		}
		late = append(late, r.late...)
		qw = append(qw, r.queueWait...)
		o.attempted += r.attempted
		o.failed += r.failed
		for _, e := range r.errs {
			if len(o.errs) < 10 {
				o.errs = append(o.errs, e)
			}
		}
		o.chunks += r.chunks
		o.listens += r.listens
		o.queries = append(o.queries, r.queries...)
	}
	for k, v := range raw {
		o.samples[k] = newDist(v)
	}
	for _, r := range recs {
		for _, k := range sessionKinds {
			for i, lat := range r.samples[k] {
				o.timed = append(o.timed, timedSample{lat: lat, end: r.ends[k][i]})
			}
		}
	}
	o.late, o.queueWait = newDist(late), newDist(qw)
	return o
}

// actions returns every session action's latency, pooled.
func (o outcome) actions() dist {
	var all []int64
	for _, k := range sessionKinds {
		all = append(all, o.samples[k]...)
	}
	return newDist(all)
}
