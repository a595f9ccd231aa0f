package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"minos/internal/object"
)

// serveTCP starts a v2-capable wire server on a loopback listener and
// returns its address.
func serveTCP(t testing.TB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(l, &Handler{Srv: testServer(t)})
	return l.Addr().String()
}

func TestMuxNegotiation(t *testing.T) {
	addr := serveTCP(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if tp.Version() != ProtocolV3 {
		t.Fatalf("negotiated version = %d, want %d", tp.Version(), ProtocolV3)
	}
	c := NewClient(tp)
	ids, _, err := c.QueryCtx(context.Background(), "lung")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("Query over mux = %v", ids)
	}
}

func TestMuxConcurrentInFlight(t *testing.T) {
	addr := serveTCP(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()

	// Many goroutines hammer the one connection; every reply must match
	// its request (correlation ids, not arrival order, route responses).
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0:
					ids, _, err := c.QueryCtx(context.Background(), "lung")
					if err == nil && (len(ids) != 1 || ids[0] != 1) {
						err = fmt.Errorf("query = %v", ids)
					}
					if err != nil {
						errs <- err
						return
					}
				case 1:
					d, _, err := c.DescriptorCtx(context.Background(), 2)
					if err == nil && d.Title != "heart" {
						err = fmt.Errorf("descriptor = %+v", d)
					}
					if err != nil {
						errs <- err
						return
					}
				default:
					m, err := miniature(c, 3)
					if err == nil && m.PopCount() == 0 {
						err = fmt.Errorf("blank miniature")
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMuxOutOfOrderWait(t *testing.T) {
	addr := serveTCP(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()

	// Start three calls, wait for them in reverse order: each must still
	// get its own response.
	a := c.StartMiniatures(context.Background(), []object.ID{1})
	b := c.StartMiniatures(context.Background(), []object.ID{2})
	d := c.StartMiniatures(context.Background(), []object.ID{3})
	for _, pm := range []MiniatureBatch{d, b, a} {
		res, _, err := pm.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || !res[0].OK {
			t.Fatalf("batch result = %+v", res)
		}
	}
}

// v1AckServer answers the HELLO on every connection with a version-1
// acknowledgement — a peer below the protocol floor — and reports each
// connection's close to closed.
func v1AckServer(t testing.TB) (addr string, closed <-chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	done := make(chan struct{}, 1)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := ReadFrame(conn); err != nil {
					return
				}
				WriteFrame(conn, okResp(0, appendU32(nil, 1)))
				ReadFrame(conn) // blocks until the client hangs up
				done <- struct{}{}
			}()
		}
	}()
	return l.Addr().String(), done
}

// TestDialMuxRejectsV1Ack: a listener that acknowledges HELLO with v1 is
// below the floor, so DialMux fails and hangs up that connection, while a
// mux client of a real server keeps being served.
func TestDialMuxRejectsV1Ack(t *testing.T) {
	good, err := DialMux(serveTCP(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(good)
	defer c.Close()

	addr, closed := v1AckServer(t)
	if tp, err := DialMux(addr); err == nil {
		tp.Close()
		t.Fatal("DialMux accepted a v1 acknowledgement")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("DialMux left the v1 connection open")
	}
	if _, _, err := c.ListCtx(context.Background()); err != nil {
		t.Fatalf("mux client after the refused dial: %v", err)
	}
}

// rawExchange opens a bare TCP connection, sends req as its first frame and
// returns the one response; it then checks the server hung up.
func rawExchange(t *testing.T, addr string, req []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("no response to first frame %v: %v", req, err)
	}
	if _, err := ReadFrame(conn); err == nil {
		t.Fatalf("connection still open after refusing first frame %v", req)
	}
	return resp
}

// TestV1ClientAgainstV2Server: a connection must open with a HELLO that
// negotiates v2 or later. A lock-step v1 client (first frame not a HELLO)
// and a HELLO(1) or HELLO(0) each get one error response, then that
// connection alone is closed; a mux client on the same server keeps being
// served.
func TestV1ClientAgainstV2Server(t *testing.T) {
	addr := serveTCP(t)
	mtp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	v2 := NewClient(mtp)
	defer v2.Close()

	for _, tc := range []struct {
		first []byte
		want  string
	}{
		{[]byte{OpList}, "first frame must be HELLO"},
		{appendU64([]byte{OpMiniature}, 3), "first frame must be HELLO"},
		{[]byte{}, "first frame must be HELLO"},
		{appendU32([]byte{OpHello}, 1), "unsupported protocol version"},
		{appendU32([]byte{OpHello}, 0), "unsupported protocol version"},
	} {
		_, _, err := parseResponse(rawExchange(t, addr, tc.first))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("first frame %v: err = %v, want %q", tc.first, err, tc.want)
		}
		if _, err := miniature(v2, 3); err != nil {
			t.Fatalf("mux client after refused frame %v: %v", tc.first, err)
		}
	}
}

// stalledServer negotiates v2 on accept, then swallows every request
// without replying. stop closes all accepted connections.
func stalledServer(t testing.TB) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				req, err := ReadFrame(conn)
				if err != nil || len(req) == 0 || req[0] != OpHello {
					conn.Close()
					return
				}
				WriteFrame(conn, okResp(0, appendU32(nil, ProtocolV2)))
				for {
					if _, err := ReadFrame(conn); err != nil {
						return
					}
					// Swallow the request; never respond.
				}
			}()
		}
	}()
	stop = func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}
	t.Cleanup(stop)
	return l.Addr().String(), stop
}

func TestMuxCallTimeout(t *testing.T) {
	addr, _ := stalledServer(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if tp.Version() != ProtocolV2 {
		t.Fatalf("version = %d", tp.Version())
	}
	tp.SetCallTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err = tp.RoundTripCtx(context.Background(), []byte{OpList})
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("stalled call error = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The timed-out call must not leak its pending-table slot.
	if n := tp.d.pendingLen(); n != 0 {
		t.Fatalf("%d pending calls leaked after timeout", n)
	}
}

func TestMuxConnectionDeathFailsPending(t *testing.T) {
	addr, stop := stalledServer(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	// Several calls in flight when the server dies: all must fail with an
	// error wrapping ErrTransportClosed, and later calls must fail fast.
	var pends []Pending
	for i := 0; i < 4; i++ {
		pends = append(pends, tp.StartCtx(context.Background(), []byte{OpList}))
	}
	stop()
	for i, p := range pends {
		if _, err := p.Wait(); !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("pending %d after death: %v, want ErrTransportClosed", i, err)
		}
	}
	if _, err := tp.StartCtx(context.Background(), []byte{OpList}).Wait(); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("post-death call error = %v", err)
	}
}

// TestTCPTimeoutAgainstDeadServer: a client calling a server that accepts
// (and negotiates) but never answers must fail by its context deadline, not
// hang forever, and must not leak the call's pending-table slot.
func TestTCPTimeoutAgainstDeadServer(t *testing.T) {
	addr, _ := stalledServer(t)
	tp, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := tp.RoundTripCtx(ctx, []byte{OpList})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("dead-server call error = %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RoundTripCtx hung against dead server despite its deadline")
	}
	if n := tp.PendingCalls(); n != 0 {
		t.Fatalf("%d pending calls leaked after deadline", n)
	}
}

// TestLocalTransportBatchWindow is the satellite fix for the simulated
// link: overlapping exchanges share one latency window, sequential
// exchanges each pay their own.
func TestLocalTransportBatchWindow(t *testing.T) {
	lt := &LocalTransport{H: &Handler{Srv: testServer(t)}, Latency: 10 * time.Millisecond}
	req := []byte{OpList}

	// Two overlapping exchanges: latency charged once.
	a := lt.StartCtx(context.Background(), req)
	b := lt.StartCtx(context.Background(), req)
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := lt.Stats().LinkTime; got != 2*lt.Latency {
		t.Fatalf("overlapping link time = %v, want %v", got, 2*lt.Latency)
	}

	// Two sequential exchanges: latency charged per round trip.
	lt.ResetStats()
	if _, err := lt.RoundTripCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.RoundTripCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := lt.Stats().LinkTime; got != 4*lt.Latency {
		t.Fatalf("sequential link time = %v, want %v", got, 4*lt.Latency)
	}

	// Wait is idempotent: a second Wait must not reopen the window.
	lt.ResetStats()
	p := lt.StartCtx(context.Background(), req)
	p.Wait()
	p.Wait()
	if _, err := lt.RoundTripCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := lt.Stats().LinkTime; got != 4*lt.Latency {
		t.Fatalf("post-idempotent link time = %v, want %v", got, 4*lt.Latency)
	}
}

func TestMiniaturesBatch(t *testing.T) {
	c, lt := localClient(t)
	lt.ResetStats()
	res, _, err := c.MiniaturesCtx(context.Background(), []object.ID{3, 42, 1})
	if err != nil {
		t.Fatal(err)
	}
	if lt.Stats().RoundTrips != 1 {
		t.Fatalf("batch took %d round trips", lt.Stats().RoundTrips)
	}
	if len(res) != 3 {
		t.Fatalf("batch size = %d", len(res))
	}
	if res[0].ID != 3 || !res[0].OK || res[0].Mini.PopCount() == 0 {
		t.Fatalf("entry 0 = %+v", res[0])
	}
	if res[0].Mode != object.Audio {
		t.Fatalf("entry 0 mode = %v, want Audio", res[0].Mode)
	}
	if res[1].ID != 42 || res[1].OK {
		t.Fatalf("missing object entry = %+v", res[1])
	}
	if !res[2].OK || res[2].Mode != object.Visual {
		t.Fatalf("entry 2 = %+v", res[2])
	}

	// A batch of one must agree with the wider batch.
	single, err := miniature(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if single.PopCount() != res[0].Mini.PopCount() {
		t.Fatalf("batched miniature diverges from single fetch")
	}

	if _, _, err := c.MiniaturesCtx(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestDemuxHostileFrames(t *testing.T) {
	d := newDemux()
	ch, err := d.register(7)
	if err != nil {
		t.Fatal(err)
	}
	// Short, unknown-id and duplicate deliveries must be dropped.
	if d.deliver(nil) || d.deliver([]byte{1, 2}) {
		t.Fatal("short frame delivered")
	}
	if d.deliver(appendU32(nil, 99)) {
		t.Fatal("unknown id delivered")
	}
	if !d.deliver(append(appendU32(nil, 7), 0xAB)) {
		t.Fatal("valid frame not delivered")
	}
	if d.deliver(append(appendU32(nil, 7), 0xCD)) {
		t.Fatal("duplicate id delivered twice")
	}
	r := <-ch
	if r.err != nil || len(r.resp) != 1 || r.resp[0] != 0xAB {
		t.Fatalf("delivered = %+v", r)
	}
	if _, err := d.register(7); err != nil {
		t.Fatal("id reuse after completion should be allowed")
	}
	d.failAll(ErrTransportClosed)
	if d.pendingLen() != 0 {
		t.Fatal("failAll left pending calls")
	}
	if _, err := d.register(8); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("register after failAll = %v", err)
	}
}

func BenchmarkMuxConcurrentMiniatures(b *testing.B) {
	addr := serveTCP(b)
	tp, err := DialMux(addr)
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()
	if _, err := miniature(c, 3); err != nil { // warm the block cache
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := miniature(c, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMuxBatchedMiniatures(b *testing.B) {
	c, _ := localClient(b)
	ids := []object.ID{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.MiniaturesCtx(context.Background(), ids); err != nil {
			b.Fatal(err)
		}
	}
}
