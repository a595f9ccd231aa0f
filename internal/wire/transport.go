package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"minos/internal/pool"
)

// LocalTransport runs the protocol in-process against a Handler, modelling
// the link with a latency + bandwidth cost. It accounts every byte moved in
// both directions, which the view/miniature transfer experiments measure.
//
// The latency model is pipelining-aware: exchanges overlapping in flight
// (StartCtx called before earlier calls Wait) form one batch window and pay
// the propagation latency once, while every frame always pays its own
// bandwidth cost. Without this, an A/B between lock-step and pipelined
// browsing would bill the pipelined side a full round-trip latency per
// frame — exactly the cost pipelining exists to amortize.
type LocalTransport struct {
	H *Handler
	// Latency is the fixed per-round-trip cost; Bandwidth is in bytes
	// per second (0 = infinite).
	Latency   time.Duration
	Bandwidth int64

	mu          sync.Mutex
	tenant      uint64 // fairness identity, claimed from H on first use
	bytesSent   int64  // workstation -> server
	bytesRecv   int64  // server -> workstation
	roundTrips  int64
	linkTime    time.Duration
	outstanding int // in-flight exchanges (StartCtx issued, Wait pending)
}

// EthernetLink approximates the paper-era 10 Mbit/s Ethernet.
func EthernetLink(h *Handler) *LocalTransport {
	return &LocalTransport{H: h, Latency: 2 * time.Millisecond, Bandwidth: 10_000_000 / 8}
}

// localPending is an in-flight simulated exchange.
type localPending struct {
	l    *LocalTransport
	resp []byte
	done bool
}

// Wait implements Pending; it closes this exchange's slot in the batch
// window.
func (p *localPending) Wait() ([]byte, error) {
	if !p.done {
		p.done = true
		p.l.mu.Lock()
		p.l.outstanding--
		p.l.mu.Unlock()
	}
	return p.resp, nil
}

// StartCtx implements Pipeliner. The handler runs immediately (the
// simulated link defers cost accounting, not work); the exchange stays open
// until Wait, and only the exchange that opens a batch window pays the
// link's round-trip latency. Since the exchange itself cannot block,
// honouring the context means refusing to start once it has ended. Each
// transport serves one simulated workstation, so it claims one tenant
// identity for the server's fairness machinery.
func (l *LocalTransport) StartCtx(ctx context.Context, req []byte) Pending {
	if err := ctx.Err(); err != nil {
		return errPending{err: err}
	}
	l.mu.Lock()
	if l.tenant == 0 {
		l.tenant = l.H.NewTenant()
	}
	tenant := l.tenant
	l.mu.Unlock()
	resp := l.H.HandleAs(tenant, req)
	l.mu.Lock()
	l.bytesSent += int64(len(req))
	l.bytesRecv += int64(len(resp))
	l.roundTrips++
	c := l.byteCost(len(req)) + l.byteCost(len(resp))
	if l.outstanding == 0 {
		c += 2 * l.Latency
	}
	l.outstanding++
	l.linkTime += c
	l.mu.Unlock()
	return &localPending{l: l, resp: resp}
}

// RoundTripCtx implements Transport; a lone round trip is a batch window of
// one and pays the full latency.
func (l *LocalTransport) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	return l.StartCtx(ctx, req).Wait()
}

// byteCost is the transfer time of n bytes at the link bandwidth.
func (l *LocalTransport) byteCost(n int) time.Duration {
	if l.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(int64(n) * int64(time.Second) / l.Bandwidth)
}

// Close implements Transport.
func (l *LocalTransport) Close() error { return nil }

// LinkStats summarizes simulated link usage.
type LinkStats struct {
	BytesSent  int64
	BytesRecv  int64
	RoundTrips int64
	LinkTime   time.Duration
}

// Stats returns the accumulated link statistics.
func (l *LocalTransport) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LinkStats{BytesSent: l.bytesSent, BytesRecv: l.bytesRecv, RoundTrips: l.roundTrips, LinkTime: l.linkTime}
}

// ResetStats zeroes the accumulated statistics.
func (l *LocalTransport) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bytesSent, l.bytesRecv, l.roundTrips, l.linkTime = 0, 0, 0, 0
}

// isCleanClose reports whether a connection read error is an ordinary
// hang-up (EOF, closed connection) rather than something worth logging.
func isCleanClose(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}

// ServeOpts configures Serve behaviour.
type ServeOpts struct {
	// IdleTimeout drops a connection that sends no request for this long
	// (0 = never). It bounds the damage a stalled or hostile client can
	// do to the connection table.
	IdleTimeout time.Duration
	// ErrorLog receives per-connection errors (bad frames, write
	// failures). Nil discards them. Clean closes (EOF, closed network
	// connection) are not reported.
	ErrorLog func(error)
	// Serialize restores the historical behaviour of one global lock
	// around the handler, so every request across every connection is
	// served one at a time. It exists for A/B throughput experiments
	// (E-CONC); production serving leaves it false.
	Serialize bool
}

// Serve accepts connections on l and serves protocol requests until the
// listener closes. Each connection runs on its own goroutine and requests
// are handled fully in parallel: the handler's server is concurrency-safe,
// and device queueing is modelled where it belongs (the server's seek
// semaphore), not by a global lock.
func Serve(l net.Listener, h *Handler) error {
	return ServeWith(l, h, ServeOpts{})
}

// ServeWith is Serve with explicit options. When the listener closes, all
// open connections are closed and their handler goroutines drained before
// ServeWith returns.
func ServeWith(l net.Listener, h *Handler, opts ServeOpts) error {
	var (
		serialMu sync.Mutex // only used when opts.Serialize
		connMu   sync.Mutex
		conns    = map[net.Conn]struct{}{}
		wg       sync.WaitGroup
	)
	logf := func(format string, args ...any) {
		if opts.ErrorLog != nil {
			opts.ErrorLog(fmt.Errorf(format, args...))
		}
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			// Listener closed (graceful shutdown) or fatal accept
			// failure: tear down active connections and wait for
			// their handlers to finish in-flight responses.
			connMu.Lock()
			for c := range conns {
				c.Close()
			}
			connMu.Unlock()
			wg.Wait()
			return err
		}
		connMu.Lock()
		conns[conn] = struct{}{}
		connMu.Unlock()
		wg.Add(1)
		go func(conn net.Conn) {
			// One tenant per connection: admission fairness tracks
			// sessions, not individual requests.
			tenant := h.NewTenant()
			defer wg.Done()
			defer func() {
				connMu.Lock()
				delete(conns, conn)
				connMu.Unlock()
				conn.Close()
			}()
			if version, ok := hello(conn, tenant, h, opts, logf); ok {
				muxConn(conn, tenant, version, h, opts, &serialMu, logf)
			}
		}(conn)
	}
}

// hello runs a connection's opening exchange. The first frame must be a
// HELLO negotiating v2 or higher; anything else gets one error response,
// after which the caller closes the connection. ok reports a successful
// upgrade to multiplexed framing at the negotiated version.
func hello(conn net.Conn, tenant uint64, h *Handler, opts ServeOpts, logf func(format string, args ...any)) (version int, ok bool) {
	if opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(opts.IdleTimeout))
	}
	var hdr [4]byte
	req, err := readFramePooled(conn, &hdr)
	if err != nil {
		if !isCleanClose(err) {
			logf("wire: %s: read: %w", conn.RemoteAddr(), err)
		}
		return 0, false
	}
	var resp []byte
	if len(req) > 0 && req[0] == OpHello {
		resp = h.HandleAs(tenant, req)
		version, err = parseHelloResponse(resp)
	} else {
		err = fmt.Errorf("wire: first frame must be HELLO (got %d bytes)", len(req))
		resp = errResp(err)
	}
	pool.Bytes.Put(req)
	werr := writeFramePooled(conn, resp)
	recycleResponse(resp)
	switch {
	case werr != nil:
		if !errors.Is(werr, net.ErrClosed) {
			logf("wire: %s: write: %w", conn.RemoteAddr(), werr)
		}
		return 0, false
	case err != nil:
		logf("wire: %s: hello: %w", conn.RemoteAddr(), err)
		return 0, false
	}
	return version, true
}
