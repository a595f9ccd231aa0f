package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"minos/internal/demo"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/workstation"
)

// Search workload: closed-loop planned queries through the cluster
// scatter/gather while one writer publishes fresh objects on every shard.
const (
	searchSessions = 8
	// searchPreload synthetic docs are partitioned across the shards'
	// content indexes before the clock starts.
	searchPreload = 200_000
	// synthBase offsets synthetic doc ids past every real object id.
	synthBase = 10_000_000
	// padBase numbers the padding docs (see preloadIndex).
	padBase = 15_000_000
	// publishBase numbers the objects the writer publishes.
	publishBase = 20_000_000
	// searchPublishRate is the writer's publishes per second per shard.
	searchPublishRate = 10.0

	// The server's content index uses the index package defaults: a
	// memtable seals at 4096 docs, and a merge starts once 8 small
	// (< 2 x 4096 docs) segments exist.
	memtableDocs = 4096
	mergeFanIn   = 8

	// Query mix shares (the rest are selective 3-term conjunctions); see
	// searchPlan.mix.
	searchFilteredShare = 0.10 // common term + kind + one-year date range
	searchScanShare     = 0.05 // kind + one-month date range, no terms
	searchCommonShare   = 0.10 // one common term, ~1/21 of all docs
	searchSelective     = 64   // distinct selective conjunctions
	searchVariants      = 16   // distinct queries of each other class
)

// searchPlan is the workload's generated input: the query pool with its
// references and the fresh objects the writer publishes, per shard.
type searchPlan struct {
	selective, filtered, scan, common []index.Query
	want                              map[string][]object.ID
	fresh                             [][]*object.Object
}

func queryKey(q index.Query) string {
	return fmt.Sprintf("%v|%d|%d|%d", q.Terms, q.Kind, q.DateFrom, q.DateTo)
}

// preloadIndex fills every shard's content index with synthetic docs owned
// by that shard, then pads each shard so that a merge is one seal away and
// the memtable is margin docs short of sealing: the writer's first margin
// publishes on a shard seal its memtable and start a merge. How much
// padding that takes depends on background merge timing, so padding docs
// carry one term no query uses, no date and the visual kind: no pooled
// query ever matches them, and the reference answers stay the same from
// one set-up to the next.
func preloadIndex(sys *system, seed uint64, margin int) {
	srvs := sys.servers()
	ring := sys.fleet.Ring
	var d index.Doc
	for i := 0; i < searchPreload; i++ {
		demo.SynthDoc(seed, i, &d)
		d.ID = object.ID(synthBase + i)
		srvs[ring.Owner(d.ID)].ContentIndex().Add(&d)
	}
	pad := index.Doc{Mode: object.Visual, Terms: []string{"padding"}}
	next := object.ID(padBase)
	add := func(owner int) {
		for ring.Owner(next) != owner {
			next++
		}
		pad.ID = next
		next++
		srvs[owner].ContentIndex().Add(&pad)
	}
	for s, srv := range srvs {
		st := srv.ContentIndex()
		st.WaitMerges()
		for smallSegments(st) < mergeFanIn-1 {
			sealed := st.Stats().Sealed
			for st.Stats().Sealed == sealed {
				add(s)
			}
			st.WaitMerges()
		}
		for memDocs(st) < memtableDocs-margin {
			add(s)
		}
	}
}

func smallSegments(st *index.Store) int {
	n := 0
	for _, g := range st.Segments() {
		if g.Docs() < 2*memtableDocs {
			n++
		}
	}
	return n
}

func memDocs(st *index.Store) int {
	n := st.Stats().Docs
	for _, g := range st.Segments() {
		n -= g.Docs()
	}
	return n
}

// planSearch builds the query pool with its naive references.
func planSearch(sys *system, seed uint64) (*searchPlan, error) {
	p := &searchPlan{want: map[string][]object.ID{}}
	rng := rand.New(rand.NewSource(int64(seed)))
	for k := 0; k < searchSelective; k++ {
		p.selective = append(p.selective, demo.SynthQuery(seed, k, searchPreload))
	}
	common := func() string { return fmt.Sprintf("common%02d", rng.Intn(demo.SynthCommonVocab)) }
	for k := 0; k < searchVariants; k++ {
		y := 1980 + rng.Intn(10)
		kind := index.KindAudio
		if k%2 == 0 {
			kind = index.KindVisual
		}
		p.filtered = append(p.filtered, index.Query{
			Terms: []string{common()}, Kind: kind,
			DateFrom: uint32(y*416 + 1*32 + 1), DateTo: uint32(y*416 + 12*32 + 31),
		})
		m := 1 + rng.Intn(12)
		p.scan = append(p.scan, index.Query{
			Kind:     index.KindAudio,
			DateFrom: uint32(y*416 + m*32 + 1), DateTo: uint32(y*416 + m*32 + 31),
		})
		p.common = append(p.common, index.Query{Terms: []string{common()}})
	}
	for _, set := range [][]index.Query{p.selective, p.filtered, p.scan, p.common} {
		for _, q := range set {
			p.want[queryKey(q)] = naiveUnion(sys.servers(), q)
		}
	}
	return p, nil
}

// withFresh returns a copy of the plan with fresh filler objects for the
// writer, partitioned by owner shard, for a run of the given length. Every
// set-up publishes its own objects.
func (plan *searchPlan) withFresh(sys *system, seed uint64, run time.Duration) (*searchPlan, error) {
	p := *plan
	need := int(searchPublishRate*run.Seconds()*1.5) + 16
	p.fresh = make([][]*object.Object, len(sys.fleet.Shards))
	for n := 0; ; n++ {
		full := true
		for _, f := range p.fresh {
			if len(f) < need {
				full = false
			}
		}
		if full {
			break
		}
		id := object.ID(publishBase + n)
		s := sys.fleet.Ring.Owner(id)
		if len(p.fresh[s]) >= need {
			continue
		}
		topic := webTerms[n%len(webTerms)]
		o, err := object.NewBuilder(id, "Notes on "+topic+" "+uniqueTerm(id), object.Visual).
			Text(demo.FillerMarkup(topic, 150, int(seed)+n)).
			Build()
		if err != nil {
			return nil, fmt.Errorf("build publish object %d: %w", id, err)
		}
		p.fresh[s] = append(p.fresh[s], o)
	}
	return &p, nil
}

// uniqueTerm is the title token only object id carries.
func uniqueTerm(id object.ID) string { return "zq" + strconv.FormatUint(uint64(id), 10) }

// mix is one session's query deck: every pooled query of each class, in
// the class shares above (per 320 queries: 32 filtered, 16 scan, 32
// common, 240 selective).
func (p *searchPlan) mix(rng *rand.Rand) *deck[index.Query] {
	const per = 320
	var cards []index.Query
	take := func(pool []index.Query, share float64) {
		for k := 0; k < int(share*per); k++ {
			cards = append(cards, pool[k%len(pool)])
		}
	}
	take(p.filtered, searchFilteredShare)
	take(p.scan, searchScanShare)
	take(p.common, searchCommonShare)
	take(p.selective, 1-searchFilteredShare-searchScanShare-searchCommonShare)
	return newDeck(cards, rng)
}

// warmSearch runs every pooled query once and checks it.
func warmSearch(sys *system, p *searchPlan) error {
	ctx := context.Background()
	for _, set := range [][]index.Query{p.selective, p.filtered, p.scan, p.common} {
		for _, q := range set {
			ids, _, err := sys.cc.QueryPlannedCtx(ctx, q)
			if err != nil {
				return err
			}
			if err := checkIDs("query "+queryKey(q), ids, p.want[queryKey(q)]); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSearch drives the query sessions and the writer until the deadline.
func runSearch(sys *system, p *searchPlan, seed uint64, start, deadline time.Time) []*recorder {
	recs := make([]*recorder, 0, searchSessions+1)
	var wg sync.WaitGroup
	for i := 0; i < searchSessions; i++ {
		rec := newRecorder()
		recs = append(recs, rec)
		var be workstation.Backend = sys.cc
		var tb *tracedBackend
		if sys.tr != nil {
			tb = newTracedBackend(sys.cc, sys.tr, nil)
			be = tb
		}
		queries := p.mix(rand.New(rand.NewSource(int64(seed)*1000 + int64(i))))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for time.Now().Before(deadline) {
				q := queries.deal()
				a := rec.begin(sys.tr, "query", tb)
				rec.attempted++
				t0 := time.Now()
				ids, _, err := be.QueryPlannedCtx(ctx, q)
				t1 := time.Now()
				rec.end(sys.tr, a, tb, 0)
				if err == nil {
					err = checkIDs("query "+queryKey(q), ids, p.want[queryKey(q)])
				}
				if err != nil {
					rec.fail("query", err)
					continue
				}
				rec.queries = append(rec.queries, q)
				if t1.Before(deadline) {
					rec.add("query", int64(t1.Sub(t0)), t1)
				}
			}
		}()
	}
	// The writer: one publish per shard every 1/searchPublishRate, each
	// followed by a routed query for the new object's unique term.
	w := newRecorder()
	recs = append(recs, w)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		srvs := sys.servers()
		period := time.Duration(float64(time.Second) / searchPublishRate)
		for n := 0; ; n++ {
			due := start.Add(time.Duration(n) * period)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			for s, srv := range srvs {
				if n >= len(p.fresh[s]) {
					continue
				}
				o := p.fresh[s][n]
				w.attempted++
				t0 := time.Now()
				_, err := srv.Publish(o)
				t1 := time.Now()
				if err != nil {
					w.fail("publish", fmt.Errorf("publish %d: %w", o.ID, err))
					continue
				}
				w.add("publish", int64(t1.Sub(t0)), t1)
				ids, _, err := sys.cc.QueryPlannedCtx(ctx, index.Query{Terms: []string{uniqueTerm(o.ID)}})
				if err == nil {
					err = checkIDs("published object "+uniqueTerm(o.ID), ids, []object.ID{o.ID})
				}
				if err != nil {
					w.fail("publish", err)
				}
			}
		}
	}()
	wg.Wait()
	return recs
}
