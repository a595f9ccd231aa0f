package workstation

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/core"
	"minos/internal/disk"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/vclock"
	"minos/internal/wire"
)

// killableTransport wraps a transport; once killed, every exchange fails
// like a dead connection until the client redials a replacement.
type killableTransport struct {
	t    wire.Transport
	dead atomic.Bool
}

func (k *killableTransport) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	if k.dead.Load() {
		return nil, wire.ErrTransportClosed
	}
	return k.t.RoundTripCtx(ctx, req)
}

func (k *killableTransport) Close() error { return k.t.Close() }

func resilienceFixture(t *testing.T, n int) (*server.Server, func() *killableTransport) {
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
	mk := func() *killableTransport {
		return &killableTransport{t: wire.EthernetLink(&wire.Handler{Srv: srv})}
	}
	return srv, mk
}

func fastRetries(c *wire.Client) {
	c.SetRetryPolicy(wire.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond})
}

// TestSessionResyncAfterReconnect: a mid-browse connection loss (server
// restart) must trigger reconnect, query-log replay and a prefetch
// generation bump, so an object whose content changed across the restart
// surfaces with its new miniature — never the pre-restart one, and never
// flagged stale.
func TestSessionResyncAfterReconnect(t *testing.T) {
	const n = 10
	srv, mk := resilienceFixture(t, n)
	cur := mk()
	client := wire.NewClient(cur)
	fastRetries(client)
	client.EnableReconnect(func() (wire.Transport, error) {
		cur = mk()
		return cur, nil
	})
	s := New(client, core.Config{Screen: screen.New(240, 140), Clock: vclock.New()})
	s.EnablePrefetch(PrefetchConfig{Depth: 4, Batch: 2})

	if hits, err := s.QueryCtx(context.Background(), "survey"); err != nil || hits != n {
		t.Fatalf("query = %d, %v", hits, err)
	}
	for i := 0; i < 3; i++ {
		if st, err := s.NextMiniatureCtx(context.Background()); err != nil || st.Done || st.Stale {
			t.Fatalf("warm step %d: %+v, %v", i, st, err)
		}
	}

	// "Restart": object 2 changes server-side and the connection dies.
	changed, err := object.NewBuilder(2, "doc2-v2", object.Visual).
		Text(".title Replacement Two\nsurvey item rewritten entirely different content.\n").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	srv.Adopt(changed)
	want := srv.Miniature(2)
	killed := cur
	killed.dead.Store(true)

	// Browse to the end, then back past object 2: every step must succeed
	// and none may be stale — the reconnect resync refreshed everything.
	var got = (*BrowseStep)(nil)
	for {
		st, err := s.NextMiniatureCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			break
		}
		if st.Stale {
			t.Fatalf("healthy-reconnect step served stale for %d", st.ID)
		}
	}
	for {
		st, err := s.PrevMiniatureCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			break
		}
		if st.Stale {
			t.Fatalf("healthy-reconnect step served stale for %d", st.ID)
		}
		if st.ID == 2 {
			got = &st
		}
	}
	if client.Reconnects() == 0 {
		t.Fatal("connection killed but client never reconnected")
	}
	if got == nil {
		t.Fatal("object 2 never browsed after the restart")
	}
	if !bmEqual(got.Mini, want) {
		t.Fatal("post-restart browse surfaced the pre-restart miniature")
	}
	s.Close()
}

// TestDegradedStaleServing: with the server unreachable and the prefetch
// generation superseded, a cursor step serves the cached miniature flagged
// Stale instead of failing — and recovers to fresh serving once the server
// is back.
func TestDegradedStaleServing(t *testing.T) {
	const n = 6
	srv, mk := resilienceFixture(t, n)
	cur := mk()
	var down atomic.Bool
	client := wire.NewClient(cur)
	fastRetries(client)
	client.EnableReconnect(func() (wire.Transport, error) {
		if down.Load() {
			return nil, errors.New("connection refused")
		}
		cur = mk()
		return cur, nil
	})
	s := New(client, core.Config{Screen: screen.New(240, 140), Clock: vclock.New()})
	s.EnablePrefetch(PrefetchConfig{Depth: 8, Batch: 3})

	if hits, err := s.QueryCtx(context.Background(), "survey"); err != nil || hits != n {
		t.Fatalf("query = %d, %v", hits, err)
	}
	for i := 0; i < n; i++ {
		if st, err := s.NextMiniatureCtx(context.Background()); err != nil || st.Done {
			t.Fatalf("warm step %d: %+v, %v", i, st, err)
		}
	}
	s.pf.drain()
	wantStale := srv.Miniature(object.ID(n - 1))

	// Server goes away entirely, and the warm cache's generation is
	// superseded (as a restart resync or a refine would do), so a cursor
	// step cannot be served fresh from cache.
	cur.dead.Store(true)
	down.Store(true)
	s.pf.invalidate()

	st, err := s.PrevMiniatureCtx(context.Background())
	if err != nil {
		t.Fatalf("degraded step failed instead of serving stale: %v", err)
	}
	if !st.Stale {
		t.Fatalf("degraded step not flagged stale: %+v", st)
	}
	if st.ID != object.ID(n-1) || !bmEqual(st.Mini, wantStale) {
		t.Fatalf("stale step = id %d", st.ID)
	}

	// Server comes back: the next step reconnects and serves fresh.
	down.Store(false)
	st, err = s.PrevMiniatureCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Stale {
		t.Fatal("step still stale after the server returned")
	}
	if !bmEqual(st.Mini, srv.Miniature(st.ID)) {
		t.Fatal("recovered step serves wrong miniature")
	}
	if client.Reconnects() == 0 {
		t.Fatal("recovery never reconnected")
	}
	s.Close()
}

// TestBrowseStepContextCancelled: a cancelled context aborts the step with
// the context's error — the ctx-first API's cancellation contract.
func TestBrowseStepContextCancelled(t *testing.T) {
	_, mk := resilienceFixture(t, 4)
	client := wire.NewClient(mk())
	fastRetries(client)
	s := New(client, core.Config{Screen: screen.New(240, 140), Clock: vclock.New()})
	if _, err := s.QueryCtx(context.Background(), "survey"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.NextMiniatureCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled step error = %v, want context.Canceled", err)
	}
	s.Close()
}
