package wire

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"minos/internal/object"
)

func BenchmarkLocalRoundTrip(b *testing.B) {
	c, _ := localClient(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.QueryCtx(context.Background(), "lung"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDescriptorFetch(b *testing.B) {
	c, _ := localClient(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DescriptorCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConcurrentPieceReads measures cache-hit piece-read throughput over
// TCP with 8 concurrent client connections — the wall-clock half of the
// E-CONC experiment (the vclock half is TestSimulateContentionModels).
// With serialize=true every request queues behind one global handler lock
// (the seed behaviour); with serialize=false requests are served in
// parallel. The wall-clock gap scales with available cores, since a
// cache-hit handler is pure CPU.
func benchConcurrentPieceReads(b *testing.B, serialize bool) {
	srv := testServer(b)
	const (
		region  = 128 * 2048 // warmed byte range (fits the 256-block cache)
		piece   = 64 * 1024  // per-request read size
		clients = 8
	)
	if _, _, err := srv.ReadPiece(0, region); err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go ServeWith(l, &Handler{Srv: srv}, ServeOpts{Serialize: serialize})

	cs := make([]*Client, clients)
	for i := range cs {
		tp, err := DialMux(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		cs[i] = NewClient(tp)
		defer cs[i].Close()
	}
	b.SetBytes(piece)
	b.ResetTimer()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for _, c := range cs {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				off := uint64(i*piece) % (region - piece)
				if _, _, err := c.ReadPieceCtx(context.Background(), off, piece); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func BenchmarkServePieceReads8ClientsSerialized(b *testing.B) {
	benchConcurrentPieceReads(b, true)
}

func BenchmarkServePieceReads8ClientsParallel(b *testing.B) {
	benchConcurrentPieceReads(b, false)
}

// BenchmarkMiniatureServeWarm measures the steady-state server handler path
// for a batched miniature request: every published miniature already built,
// every request identical — the shape of sequential browsing under load.
func BenchmarkMiniatureServeWarm(b *testing.B) {
	h := &Handler{Srv: testServer(b)}
	req := encodeMiniaturesReq([]object.ID{1, 2, 3})
	if resp := h.Handle(req); resp[0] != statusOK {
		b.Fatalf("warmup response status %d", resp[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := h.Handle(req)
		if resp[0] != statusOK {
			b.Fatal("bad response")
		}
		recycleResponse(resp) // as the serve loops do after the write
	}
}
