package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"minos/internal/pool"
)

// Protocol versions negotiated by the HELLO op, which must open every
// connection. Version 2 is the floor: it multiplexes many in-flight
// exchanges over one connection by prefixing every frame (in both
// directions) with a 4-byte correlation id, which is what lets the browse
// prefetch pipeline overlap delivery with viewing instead of paying a full
// link round trip per cursor step. Version 3 keeps v2's framing and adds
// server-push streams (see stream.go): one correlation id may carry a whole
// sequence of stream frames under credit-based flow control. Peers that
// negotiate v2 keep the single-frame paths byte for byte — stream ops are
// simply never sent to them.
const (
	ProtocolV2 = 2
	ProtocolV3 = 3
)

// Errors surfaced by pipelined calls.
var (
	// ErrCallTimeout reports a call that exceeded its per-call deadline.
	// The connection stays usable: the late response is discarded by the
	// demultiplexer when (if) it arrives.
	ErrCallTimeout = errors.New("wire: call timed out")
	// ErrTransportClosed reports a call attempted or in flight when the
	// connection died; every pending call fails with an error wrapping it.
	ErrTransportClosed = errors.New("wire: transport closed")
)

// Pending is one in-flight exchange started on a pipelined transport.
type Pending interface {
	// Wait blocks until the response (or the call's failure) arrives.
	Wait() ([]byte, error)
}

// Pipeliner is a Transport that can carry many concurrent exchanges at
// once; each in-flight exchange also fails with the context's error when
// ctx ends before the response. Transports that cannot pipeline are adapted
// by the client with a goroutine per call.
type Pipeliner interface {
	Transport
	StartCtx(ctx context.Context, req []byte) Pending
}

// --- correlation-id demultiplexer ---

type muxResult struct {
	resp []byte
	err  error
}

// demux routes v2 response frames to the pending call with the matching
// correlation id. It is deliberately self-contained (no net.Conn) so the
// fuzz target can drive it with hostile frames directly: truncated,
// duplicate and unknown-id frames must be dropped without panicking and
// without leaking pending-call table entries.
type demux struct {
	mu      sync.Mutex
	pending map[uint32]chan muxResult
	// streams routes ids with many frames in flight (server-push streams):
	// unlike pending, a delivery does not retire the slot.
	streams map[uint32]*muxStream
	err     error // set once the transport dies; register fails afterwards
}

func newDemux() *demux {
	return &demux{pending: map[uint32]chan muxResult{}, streams: map[uint32]*muxStream{}}
}

// register allocates the pending slot for a correlation id. It fails after
// failAll (connection dead) and on a duplicate id (caller bug).
func (d *demux) register(id uint32) (chan muxResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, d.err
	}
	if _, dup := d.pending[id]; dup {
		return nil, fmt.Errorf("wire: duplicate correlation id %d", id)
	}
	ch := make(chan muxResult, 1)
	d.pending[id] = ch
	return ch, nil
}

// cancel drops a pending slot (per-call timeout); a response arriving later
// is treated as unknown-id and discarded.
func (d *demux) cancel(id uint32) {
	d.mu.Lock()
	delete(d.pending, id)
	d.mu.Unlock()
}

// registerStream allocates the stream slot for a correlation id; stream
// slots live until removeStream (many frames deliver to them).
func (d *demux) registerStream(id uint32, s *muxStream) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if _, dup := d.pending[id]; dup {
		return fmt.Errorf("wire: duplicate correlation id %d", id)
	}
	if _, dup := d.streams[id]; dup {
		return fmt.Errorf("wire: duplicate correlation id %d", id)
	}
	d.streams[id] = s
	return nil
}

// removeStream releases a stream slot; later frames for the id are
// unknown-id drops.
func (d *demux) removeStream(id uint32) {
	d.mu.Lock()
	delete(d.streams, id)
	d.mu.Unlock()
}

// deliver routes one raw v2 frame ([4-byte id][response]) to its pending
// call or open stream. It reports whether the frame found a home; short
// frames and unknown or already-completed ids are dropped.
func (d *demux) deliver(frame []byte) bool {
	if len(frame) < 4 {
		return false
	}
	id := binary.BigEndian.Uint32(frame)
	d.mu.Lock()
	ch, ok := d.pending[id]
	if ok {
		delete(d.pending, id)
	}
	var st *muxStream
	if !ok {
		st = d.streams[id]
	}
	d.mu.Unlock()
	if ok {
		ch <- muxResult{resp: frame[4:]}
		return true
	}
	if st != nil {
		st.push(frame[4:])
		return true
	}
	return false
}

// failAll completes every pending call with err and poisons the table so
// later register calls fail fast — the clean-error-propagation path when
// the connection dies under in-flight requests.
func (d *demux) failAll(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	ferr := d.err
	for id, ch := range d.pending {
		delete(d.pending, id)
		ch <- muxResult{err: ferr}
	}
	var streams []*muxStream
	for id, s := range d.streams {
		delete(d.streams, id)
		streams = append(streams, s)
	}
	d.mu.Unlock()
	for _, s := range streams {
		s.fail(ferr)
	}
}

// streamLen returns the number of registered, unclosed streams.
func (d *demux) streamLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.streams)
}

// pendingLen returns the number of registered, undelivered calls.
func (d *demux) pendingLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// --- client-side multiplexed transport ---

// MuxTransport runs the protocol over a net.Conn with v2+ multiplexed
// framing: any number of calls may be in flight concurrently on the one
// connection, each with its own correlation id and optional per-call
// timeout.
type MuxTransport struct {
	conn    net.Conn
	version int
	// helloExtra is the opaque payload the server appended to its HELLO
	// ack (a fleet member's encoded cluster map); nil otherwise.
	helloExtra []byte

	// callTimeout (nanoseconds) bounds each call; 0 = wait forever.
	callTimeout atomic.Int64

	writeMu sync.Mutex
	d       *demux
	nextID  atomic.Uint32
}

// DialMux connects to a wire server and negotiates the protocol version
// with a HELLO, upgrading the connection to multiplexed framing. A server
// that refuses the HELLO or acknowledges a version below v2 fails the dial.
func DialMux(addr string) (*MuxTransport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hello := appendU32([]byte{OpHello}, ProtocolV3)
	if err := WriteFrame(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	v, err := parseHelloResponse(resp)
	if err == nil && v < ProtocolV2 {
		err = fmt.Errorf("wire: server acknowledged protocol v%d, need v%d or later", v, ProtocolV2)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	// Honour the server's negotiated version (capped at what we asked for):
	// v2 servers get a pure-v2 client that never sends stream ops.
	m := &MuxTransport{conn: conn, version: min(v, ProtocolV3), helloExtra: parseHelloExtra(resp), d: newDemux()}
	go m.readLoop()
	return m, nil
}

// parseHelloResponse extracts the negotiated version from a HELLO response.
func parseHelloResponse(resp []byte) (int, error) {
	payload, _, err := parseResponse(resp)
	if err != nil {
		return 0, err
	}
	c := &cursor{data: payload}
	v, err := c.u32()
	if err != nil {
		return 0, err
	}
	return int(v), nil
}

// parseHelloExtra extracts the optional length-prefixed payload a server
// appended after the version word of its HELLO ack (the cluster map), or
// nil when absent or damaged.
func parseHelloExtra(resp []byte) []byte {
	payload, _, err := parseResponse(resp)
	if err != nil {
		return nil
	}
	c := &cursor{data: payload}
	if _, err := c.u32(); err != nil { // version word
		return nil
	}
	n, err := c.u32()
	if err != nil || c.pos+int(n) > len(payload) {
		return nil
	}
	extra := make([]byte, n)
	copy(extra, payload[c.pos:c.pos+int(n)])
	return extra
}

// Version reports the negotiated protocol version.
func (m *MuxTransport) Version() int { return m.version }

// HelloExtra returns the opaque payload the server attached to its HELLO
// acknowledgement — a sharded fleet member attaches its encoded cluster map
// — or nil. The routing client uses it to learn the shard topology without
// a second round trip.
func (m *MuxTransport) HelloExtra() []byte { return m.helloExtra }

// SetCallTimeout bounds every subsequent call (write + wait for response);
// zero waits forever. A timed-out call fails with ErrCallTimeout while the
// connection stays usable.
func (m *MuxTransport) SetCallTimeout(d time.Duration) { m.callTimeout.Store(int64(d)) }

// readLoop is the single reader demultiplexing response frames; on any
// read error it fails every pending call and poisons the transport.
func (m *MuxTransport) readLoop() {
	for {
		frame, err := ReadFrame(m.conn)
		if err != nil {
			m.d.failAll(fmt.Errorf("%w: %v", ErrTransportClosed, err))
			return
		}
		m.d.deliver(frame)
	}
}

// muxPending is an in-flight call registered under its correlation id.
type muxPending struct {
	d       *demux
	id      uint32
	ch      chan muxResult
	timeout time.Duration
	ctx     context.Context // the call also fails when ctx ends
}

// Wait implements Pending.
func (p *muxPending) Wait() ([]byte, error) {
	var timeoutC <-chan time.Time
	if p.timeout > 0 {
		t := time.NewTimer(p.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case r := <-p.ch:
		return r.resp, r.err
	case <-timeoutC:
		return p.abandon(fmt.Errorf("%w after %v", ErrCallTimeout, p.timeout))
	case <-p.ctx.Done():
		return p.abandon(p.ctx.Err())
	}
}

// abandon gives up on the call (timeout or context end), releasing its
// pending slot so the table does not leak. The demux may have delivered
// between the trigger and the cancel; prefer the response if it is already
// there.
func (p *muxPending) abandon(err error) ([]byte, error) {
	p.d.cancel(p.id)
	select {
	case r := <-p.ch:
		return r.resp, r.err
	default:
	}
	return nil, err
}

// errPending is a call that failed before it was written.
type errPending struct{ err error }

func (p errPending) Wait() ([]byte, error) { return nil, p.err }

// chanPending is a goroutine-backed call on a transport that cannot
// pipeline.
type chanPending chan muxResult

func (p chanPending) Wait() ([]byte, error) {
	r := <-p
	return r.resp, r.err
}

// StartCtx implements Pipeliner: it sends the request and returns
// immediately; Wait collects the response. The in-flight call additionally
// fails with the context's error when ctx ends before the response: a
// cancelled call releases its pending slot and any late response is
// discarded by the demultiplexer; the connection stays usable.
func (m *MuxTransport) StartCtx(ctx context.Context, req []byte) Pending {
	if err := ctx.Err(); err != nil {
		return errPending{err: err}
	}
	timeout := time.Duration(m.callTimeout.Load())
	id := m.nextID.Add(1)
	ch, err := m.d.register(id)
	if err != nil {
		return errPending{err: err}
	}
	out := muxFrame(id, req)
	m.writeMu.Lock()
	if timeout > 0 {
		m.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	_, werr := m.conn.Write(out)
	m.writeMu.Unlock()
	pool.Bytes.Put(out)
	if werr != nil {
		m.d.cancel(id)
		return errPending{err: werr}
	}
	return &muxPending{d: m.d, id: id, ch: ch, timeout: timeout, ctx: ctx}
}

// muxFrame stages one v2 frame — [length u32][correlation id u32][msg] — in
// an exactly-sized pooled buffer, so the whole frame goes out in a single
// Write. The caller owns the result and recycles it after the write.
func muxFrame(id uint32, msg []byte) []byte {
	out := pool.Bytes.Get(8 + len(msg))
	binary.BigEndian.PutUint32(out, uint32(4+len(msg)))
	binary.BigEndian.PutUint32(out[4:], id)
	copy(out[8:], msg)
	return out
}

// RoundTripCtx implements Transport; it is safe for concurrent use, and
// concurrent calls really are in flight together on the wire.
func (m *MuxTransport) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	return m.StartCtx(ctx, req).Wait()
}

// PendingCalls reports the number of in-flight calls still awaiting a
// response. The fault-matrix tests use it to assert that faults never leak
// pending-call table entries.
func (m *MuxTransport) PendingCalls() int { return m.d.pendingLen() }

// Close implements Transport; pending calls fail with ErrTransportClosed.
func (m *MuxTransport) Close() error { return m.conn.Close() }

// --- server side ---

// maxConnInFlight bounds concurrently-served requests per v2 connection;
// the read loop blocks (natural backpressure) when a client keeps more in
// flight than that.
const maxConnInFlight = 64

// muxConn serves one upgraded v2+ connection: each request frame is handled
// on its own goroutine and its response written back tagged with the
// request's correlation id, so slow (device-bound) requests do not block
// fast (cache-hit) ones behind head-of-line. On a v3-negotiated connection
// stream ops get dedicated handling: credit and cancel frames are applied
// inline by the read loop (they must never queue behind data production),
// and stream producers run on goroutines outside the in-flight semaphore —
// they are paced by their credit windows, and letting them hold semaphore
// slots for a stream's lifetime would starve (or deadlock) batched calls.
// Returns when the connection dies, after cancelling open streams and
// draining in-flight handlers.
func muxConn(conn net.Conn, tenant uint64, version int, h *Handler, opts ServeOpts, serialMu *sync.Mutex, logf func(format string, args ...any)) {
	var (
		writeMu sync.Mutex
		wg      sync.WaitGroup
		sem     = make(chan struct{}, maxConnInFlight)
		hdr     [4]byte // frame-header scratch (only the read loop touches it)
		streams = newSrvStreams()
	)
	defer wg.Wait()
	defer streams.cancelAll() // runs before wg.Wait: unblocks producers first
	for {
		if opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(opts.IdleTimeout))
		}
		frame, err := readFramePooled(conn, &hdr)
		if err != nil {
			if !isCleanClose(err) {
				logf("wire: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if len(frame) < 4 {
			logf("wire: %s: short v2 frame (%d bytes)", conn.RemoteAddr(), len(frame))
			return
		}
		id := binary.BigEndian.Uint32(frame)
		if version >= ProtocolV3 && len(frame) >= 5 {
			switch frame[4] {
			case OpStreamCredit:
				if len(frame) >= 9 {
					streams.grant(id, binary.BigEndian.Uint32(frame[5:9]))
				}
				pool.Bytes.Put(frame)
				continue
			case OpStreamCancel:
				streams.cancel(id)
				pool.Bytes.Put(frame)
				continue
			case OpVoiceStream, OpMiniatureStream:
				st := streams.open(id)
				if st == nil {
					logf("wire: %s: duplicate stream id %d", conn.RemoteAddr(), id)
					pool.Bytes.Put(frame)
					continue
				}
				wg.Add(1)
				go func(id uint32, frame []byte, st *srvStream) {
					defer wg.Done()
					defer streams.remove(id)
					serveMuxStream(conn, &writeMu, id, tenant, h, frame[4:], st, logf)
					pool.Bytes.Put(frame)
				}(id, frame, st)
				continue
			}
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(id uint32, frame []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			req := frame[4:]
			var resp []byte
			if opts.Serialize {
				serialMu.Lock()
				resp = h.HandleAs(tenant, req)
				serialMu.Unlock()
			} else {
				resp = h.HandleAs(tenant, req)
			}
			pool.Bytes.Put(frame) // Handle copies what it keeps
			out := muxFrame(id, resp)
			writeMu.Lock()
			_, werr := conn.Write(out)
			writeMu.Unlock()
			pool.Bytes.Put(out)
			recycleResponse(resp)
			if werr != nil && !errors.Is(werr, net.ErrClosed) {
				logf("wire: %s: write: %v", conn.RemoteAddr(), werr)
			}
		}(id, frame)
	}
}
