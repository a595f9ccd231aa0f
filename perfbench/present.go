package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"minos/internal/core"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/vclock"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// Present workload: closed-loop workstation sessions over one routed
// client, alternating a full-object presentation with a voice listen.
const (
	presentSessions = 8
	// presentWindow is the voice stream credit window: the workstation's
	// own (16 chunks of wire.StreamChunkBytes).
	presentWindow = 16 * wire.StreamChunkBytes
)

// presentSession is one workstation user. Untraced, be is the shared
// cluster client; traced, a per-session wrapper over it.
type presentSession struct {
	ws *workstation.Session
	be workstation.Backend
	tb *tracedBackend
}

func newPresentSessions(sys *system, n int) []*presentSession {
	out := make([]*presentSession, n)
	for i := range out {
		var be workstation.Backend = sys.cc
		ps := &presentSession{}
		if sys.tr != nil {
			ps.tb = newTracedBackend(sys.cc, sys.tr, nil)
			be = ps.tb
		}
		ps.be = be
		ps.ws = workstation.New(be, core.Config{Screen: screen.New(screenW, screenH), Clock: vclock.New()})
		out[i] = ps
	}
	return out
}

// open presents an object: descriptor, every piece materialized, then the
// core presentation render of the first view.
func (ps *presentSession) open(id object.ID) error {
	if err := ps.ws.OpenObject(id); err != nil {
		return fmt.Errorf("open %d: %w", id, err)
	}
	frame := ps.ws.Manager().Screen().Render()
	frame.Release()
	return nil
}

// listen opens a voice stream, grants as it drains, and checks that the
// offsets are contiguous and the delivered bytes add up. It returns the
// time to the first chunk and the chunk count.
func (ps *presentSession) listen(ctx context.Context, id object.ID, want uint64) (time.Duration, int, error) {
	t0 := time.Now()
	info, sc, err := ps.be.VoiceStreamCtx(ctx, id, 0, presentWindow)
	if err != nil {
		return 0, 0, fmt.Errorf("listen %d: %w", id, err)
	}
	defer sc.Close()
	var ttfa time.Duration
	var next uint64
	chunks := 0
	for {
		ch, err := sc.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			return ttfa, chunks, fmt.Errorf("listen %d at %d: %w", id, next, err)
		}
		if chunks == 0 {
			ttfa = time.Since(t0)
		}
		if ch.Offset != next {
			return ttfa, chunks, fmt.Errorf("listen %d: chunk at offset %d, want %d", id, ch.Offset, next)
		}
		next += uint64(len(ch.Data))
		chunks++
		sc.Grant(len(ch.Data))
	}
	if next != info.TotalBytes || info.TotalBytes != want {
		return ttfa, chunks, fmt.Errorf("listen %d: delivered %d bytes, header %d, want %d", id, next, info.TotalBytes, want)
	}
	return ttfa, chunks, nil
}

// warmPresent opens every object and streams every spoken object once.
func warmPresent(sys *system, rf *refs) error {
	ps := newPresentSessions(sys, 1)[0]
	for _, id := range rf.ids {
		if err := ps.open(id); err != nil {
			return err
		}
		if err := rf.checkObject(id, ps.ws.Manager().Object()); err != nil {
			return err
		}
	}
	for _, id := range rf.spoken {
		if _, _, err := ps.listen(context.Background(), id, rf.pcmBytes[id]); err != nil {
			return err
		}
	}
	return nil
}

// runPresent drives the closed loop until the deadline.
func runPresent(sys *system, rf *refs, seed uint64, start, deadline time.Time) []*recorder {
	sessions := newPresentSessions(sys, presentSessions)
	recs := make([]*recorder, len(sessions))
	var wg sync.WaitGroup
	for i, ps := range sessions {
		rec := newRecorder()
		recs[i] = rec
		rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(i)))
		objs, spoken := newDeck(rf.ids, rng), newDeck(rf.spoken, rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for time.Now().Before(deadline) {
				id := objs.deal()
				a := rec.begin(sys.tr, "open", ps.tb)
				rec.attempted++
				t0 := time.Now()
				err := ps.open(id)
				t1 := time.Now()
				rec.end(sys.tr, a, ps.tb, 0)
				if err == nil {
					err = rf.checkObject(id, ps.ws.Manager().Object())
				}
				if err != nil {
					rec.fail("open", err)
				} else if t1.Before(deadline) {
					rec.add("open", int64(t1.Sub(t0)), t1)
				}

				sp := spoken.deal()
				a = rec.begin(sys.tr, "listen", ps.tb)
				rec.attempted++
				ttfa, chunks, err := ps.listen(ctx, sp, rf.pcmBytes[sp])
				rec.end(sys.tr, a, ps.tb, max(int64(ttfa), 1))
				if err != nil {
					rec.fail("listen", err)
				} else if now := time.Now(); now.Before(deadline) {
					rec.add("listen", int64(ttfa), now)
					rec.chunks += int64(chunks)
					rec.listens++
				}
			}
		}()
	}
	wg.Wait()
	return recs
}
