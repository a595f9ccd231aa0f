package workstation

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"minos/internal/archiver"
	"minos/internal/core"
	"minos/internal/disk"
	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/vclock"
	"minos/internal/wire"
)

// browseFixture publishes n visual objects all matching the term "survey"
// and returns a session over a simulated Ethernet link.
func browseFixture(t testing.TB, n int) (*Session, *wire.LocalTransport, *server.Server) {
	t.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(16384))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(archiver.New(dev))
	for i := 1; i <= n; i++ {
		o, err := object.NewBuilder(object.ID(i), fmt.Sprintf("doc%d", i), object.Visual).
			Text(fmt.Sprintf(".title Survey %d\nsurvey item number %d with distinct body text.\n", i, i)).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Publish(o); err != nil {
			t.Fatal(err)
		}
	}
	lt := wire.EthernetLink(&wire.Handler{Srv: srv})
	sess := New(wire.NewClient(lt), core.Config{Screen: screen.New(240, 140), Clock: vclock.New()})
	return sess, lt, srv
}

func bmEqual(a, b *img.Bitmap) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.W != b.W || a.H != b.H {
		return false
	}
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			if a.Get(x, y) != b.Get(x, y) {
				return false
			}
		}
	}
	return true
}

// TestPrefetchedBrowseMatchesLockstep: the pipeline is an optimization,
// not a behaviour change — every miniature surfaced while prefetching must
// be identical to the lock-step fetch.
func TestPrefetchedBrowseMatchesLockstep(t *testing.T) {
	const n = 12
	plain, _, _ := browseFixture(t, n)
	pre, _, _ := browseFixture(t, n)
	pre.EnablePrefetch(PrefetchConfig{Depth: 6, Batch: 3})

	if hits, err := plain.QueryCtx(context.Background(), "survey"); err != nil || hits != n {
		t.Fatalf("query = %d, %v", hits, err)
	}
	if hits, err := pre.QueryCtx(context.Background(), "survey"); err != nil || hits != n {
		t.Fatalf("query = %d, %v", hits, err)
	}
	for i := 0; i < n; i++ {
		a, errA := plain.NextMiniatureCtx(context.Background())
		b, errB := pre.NextMiniatureCtx(context.Background())
		if errA != nil || errB != nil || a.Done || b.Done {
			t.Fatalf("step %d: %v %v %v %v", i, errA, errB, a.Done, b.Done)
		}
		if a.ID != b.ID {
			t.Fatalf("step %d: ids diverge %d vs %d", i, a.ID, b.ID)
		}
		if !bmEqual(a.Mini, b.Mini) {
			t.Fatalf("step %d: prefetched miniature differs from lock-step", i)
		}
	}
	if st, _ := pre.NextMiniatureCtx(context.Background()); !st.Done {
		t.Fatal("prefetched browse not done past the end")
	}
	pre.Close()
}

// TestPrefetchSteadyState: after the cold start, every cursor step is a
// cache hit and the link sees ~1/Batch round trips per step.
func TestPrefetchSteadyState(t *testing.T) {
	const (
		n     = 24
		batch = 4
	)
	s, lt, _ := browseFixture(t, n)
	s.EnablePrefetch(PrefetchConfig{Depth: 8, Batch: batch})
	if _, err := s.QueryCtx(context.Background(), "survey"); err != nil {
		t.Fatal(err)
	}
	lt.ResetStats()
	for i := 0; i < n; i++ {
		if st, err := s.NextMiniatureCtx(context.Background()); err != nil || st.Done {
			t.Fatalf("step %d: done=%v err=%v", i, st.Done, err)
		}
	}
	s.Close() // drain in-flight prefetches before reading stats

	ps := s.PrefetchStats()
	if ps.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (cold start only)", ps.Misses)
	}
	if ps.Hits != n-1 {
		t.Fatalf("hits = %d, want %d", ps.Hits, n-1)
	}
	wantBatches := int64(n/batch + 1)
	if ps.Batches > wantBatches {
		t.Fatalf("batches = %d, want <= %d", ps.Batches, wantBatches)
	}
	if rt := lt.Stats().RoundTrips; rt > wantBatches {
		t.Fatalf("round trips = %d, want <= %d (vs %d lock-step)", rt, wantBatches, 2*n)
	}
}

// TestRefineInvalidatesPrefetchedMiniatures: a changed result set must
// never surface a miniature cached (or in flight) before the change.
func TestRefineInvalidatesPrefetchedMiniatures(t *testing.T) {
	const n = 8
	s, _, srv := browseFixture(t, n)
	s.EnablePrefetch(PrefetchConfig{Depth: 8, Batch: 4})
	if _, err := s.QueryCtx(context.Background(), "survey"); err != nil {
		t.Fatal(err)
	}
	// Warm the pipeline over the whole set.
	if _, err := s.NextMiniatureCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Object 2's content changes server-side (its miniature with it).
	changed, err := object.NewBuilder(2, "doc2-v2", object.Visual).
		Text(".title Replacement Two\nsurvey item rewritten entirely different content.\n").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	srv.Adopt(changed)
	want := srv.Miniature(2)

	// Refine keeps object 2 in the set and invalidates the pipeline; the
	// next fetch of 2 must be the new miniature, not the cached old one.
	if hits, err := s.RefineCtx(context.Background(), "survey"); err != nil || hits == 0 {
		t.Fatalf("refine = %d, %v", hits, err)
	}
	var got *img.Bitmap
	for {
		st, err := s.NextMiniatureCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			break
		}
		if st.ID == 2 {
			got = st.Mini
		}
	}
	if got == nil {
		t.Fatal("object 2 not browsed after refine")
	}
	if !bmEqual(got, want) {
		t.Fatal("refine surfaced a stale prefetched miniature")
	}
	s.Close()
}

// TestPrefetchRefineRace drives a browse loop whose result set is refined
// while background prefetches are in flight: under -race this doubles as a
// data-race check, and every post-refine browse must see the server's
// current miniature, never the superseded one.
func TestPrefetchRefineRace(t *testing.T) {
	const n = 16
	s, _, srv := browseFixture(t, n)
	s.EnablePrefetch(PrefetchConfig{Depth: 8, Batch: 4})

	for iter := 0; iter < 25; iter++ {
		if _, err := s.QueryCtx(context.Background(), "survey"); err != nil {
			t.Fatal(err)
		}
		// Launch the pipeline, then immediately change an object and
		// refine while those fetches are still in flight.
		if _, err := s.NextMiniatureCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		victim := object.ID(2 + iter%(n-2))
		changed, err := object.NewBuilder(victim, "rewrite", object.Visual).
			Text(fmt.Sprintf(".title Rewrite %d\nsurvey rewritten pass %d body here.\n", iter, iter)).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		srv.Adopt(changed)
		want := srv.Miniature(victim)
		if _, err := s.RefineCtx(context.Background(), "survey"); err != nil {
			t.Fatal(err)
		}
		for {
			st, err := s.NextMiniatureCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Done {
				break
			}
			if st.ID == victim && !bmEqual(st.Mini, want) {
				t.Fatalf("iter %d: stale miniature for %d surfaced after refine", iter, victim)
			}
		}
	}
	s.Close()
}

// TestPrefetcherConcurrentEnsureInvalidate exercises the prefetcher's
// internals from many goroutines at once (ensure racing invalidate racing
// background inserts); it exists for the race detector.
func TestPrefetcherConcurrentEnsureInvalidate(t *testing.T) {
	const n = 16
	s, _, _ := browseFixture(t, n)
	p := newPrefetcher(s.be, PrefetchConfig{Depth: 8, Batch: 4})
	ids := make([]object.ID, n)
	for i := range ids {
		ids[i] = object.ID(i + 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if g == 3 {
					p.invalidate()
					continue
				}
				idx := (g*7 + i) % n
				mini, _, err := p.ensure(context.Background(), ids, idx)
				if err != nil {
					t.Error(err)
					return
				}
				if mini == nil || mini.PopCount() == 0 {
					t.Errorf("blank miniature for %d", ids[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	p.drain()
}

func BenchmarkPrefetchedBrowse(b *testing.B) {
	const n = 24
	s, _, _ := browseFixture(b, n)
	s.EnablePrefetch(PrefetchConfig{Depth: 8, Batch: 6})
	if _, err := s.QueryCtx(context.Background(), "survey"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			st, err := s.NextMiniatureCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if st.Done {
				break
			}
		}
		for {
			if st, _ := s.PrevMiniatureCtx(context.Background()); st.Done {
				break
			}
		}
	}
}

func BenchmarkLockstepBrowse(b *testing.B) {
	const n = 24
	s, _, _ := browseFixture(b, n)
	if _, err := s.QueryCtx(context.Background(), "survey"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			st, err := s.NextMiniatureCtx(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if st.Done {
				break
			}
		}
		for {
			if st, _ := s.PrevMiniatureCtx(context.Background()); st.Done {
				break
			}
		}
	}
}
