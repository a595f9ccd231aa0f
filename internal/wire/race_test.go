package wire

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	img "minos/internal/image"
	"minos/internal/object"
)

func raceIters(t *testing.T, full int) int {
	t.Helper()
	if testing.Short() {
		return full / 4
	}
	return full
}

// TestServeConcurrentConnections hammers one TCP server from many
// connections with overlapping Piece/Miniature/View/Stats requests and
// asserts byte-identical results vs. the serial path. Under -race it
// proves wire.Serve needs no global handler lock.
func TestServeConcurrentConnections(t *testing.T) {
	srv := testServer(t)
	h := &Handler{Srv: srv}

	// Serial baselines through a direct client.
	serial := NewClient(EthernetLink(h))
	ext, err := srv.Archiver().ExtentOf(1)
	if err != nil {
		t.Fatal(err)
	}
	basePiece, _, err := serial.ReadPieceCtx(context.Background(), ext.Start, ext.Length)
	if err != nil {
		t.Fatal(err)
	}
	viewRect := img.Rect{X: 10, Y: 10, W: 40, H: 30}
	baseView, _, err := serial.ImageViewCtx(context.Background(), 3, "map", viewRect)
	if err != nil {
		t.Fatal(err)
	}
	baseIDs, _, err := serial.ListCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, h)

	const clients = 16
	iters := raceIters(t, 40)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tp, err := DialMux(l.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			c := NewClient(tp)
			defer c.Close()
			for i := 0; i < iters; i++ {
				switch (w + i) % 6 {
				case 0:
					data, _, err := c.ReadPieceCtx(context.Background(), ext.Start, ext.Length)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(data, basePiece) {
						errc <- fmt.Errorf("client %d: piece diverged from serial read", w)
						return
					}
				case 1:
					m, err := miniature(c, 3)
					if err != nil {
						errc <- err
						return
					}
					if m.PopCount() == 0 {
						errc <- fmt.Errorf("client %d: blank miniature", w)
						return
					}
				case 2:
					v, _, err := c.ImageViewCtx(context.Background(), 3, "map", viewRect)
					if err != nil {
						errc <- err
						return
					}
					if v.W != baseView.W || v.H != baseView.H || v.PopCount() != baseView.PopCount() {
						errc <- fmt.Errorf("client %d: view diverged from serial extract", w)
						return
					}
				case 3:
					ids, _, err := c.QueryCtx(context.Background(), "the")
					if err != nil {
						errc <- err
						return
					}
					if len(ids) != 3 {
						errc <- fmt.Errorf("client %d: Query(the) = %v", w, ids)
						return
					}
				case 4:
					st, err := c.StatsCtx(context.Background())
					if err != nil {
						errc <- err
						return
					}
					if st.PieceReads < 0 || st.BytesOut < 0 {
						errc <- fmt.Errorf("client %d: stats = %+v", w, st)
						return
					}
				case 5:
					ids, _, err := c.ListCtx(context.Background())
					if err != nil {
						errc <- err
						return
					}
					if len(ids) != len(baseIDs) {
						errc <- fmt.Errorf("client %d: List = %v, want %v", w, ids, baseIDs)
						return
					}
					if m, err := c.ModeCtx(context.Background(), 3); err != nil || m != object.Audio {
						errc <- fmt.Errorf("client %d: Mode = %v, %v", w, m, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The server observed real concurrent traffic.
	st, err := NewClient(EthernetLink(h)).StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PieceReads == 0 || st.CacheHits == 0 {
		t.Fatalf("server stats after stress = %+v", st)
	}
}

// TestConcurrentPooledResponses drives the handler's pooled-response path
// from many goroutines at once: each builds a batched miniature response
// from a pool buffer, and each goroutine byte-compares its response against
// the serial baseline before recycling it. If the pool ever handed the same
// buffer to two in-flight responses, or a recycle landed while the bytes
// were still being read, the comparison (or -race) would catch it.
func TestConcurrentPooledResponses(t *testing.T) {
	h := &Handler{Srv: testServer(t)}
	req := encodeMiniaturesReq([]object.ID{1, 2, 3})
	first := h.Handle(req)
	if first[0] != statusOK {
		t.Fatalf("baseline response status %d", first[0])
	}
	base := append([]byte(nil), first...)
	recycleResponse(first)

	const workers = 16
	iters := raceIters(t, 300)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp := h.Handle(req)
				if !bytes.Equal(resp, base) {
					errc <- fmt.Errorf("worker %d: pooled response diverged from serial baseline", w)
					return
				}
				res, err := decodeMiniatures([]object.ID{1, 2, 3}, resp[13:])
				if err != nil {
					errc <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				for _, r := range res {
					if !r.OK || r.Mini == nil || r.Mini.PopCount() == 0 {
						errc <- fmt.Errorf("worker %d: blank miniature in batch", w)
						return
					}
				}
				recycleResponse(resp)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestLocalTransportConcurrent drives one shared in-process transport from
// many goroutines: the link accounting and the handler must both tolerate
// it (the client stub itself is stateless).
func TestLocalTransportConcurrent(t *testing.T) {
	lt := EthernetLink(&Handler{Srv: testServer(t)})
	c := NewClient(lt)
	const workers = 12
	iters := raceIters(t, 40)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					if _, _, err := c.QueryCtx(context.Background(), "lung"); err != nil {
						errc <- err
						return
					}
				} else {
					if _, _, err := c.DescriptorCtx(context.Background(), 2); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := lt.Stats()
	if st.RoundTrips != int64(workers*iters) {
		t.Fatalf("round trips = %d, want %d", st.RoundTrips, workers*iters)
	}
}
