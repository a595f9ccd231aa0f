package main

import (
	"context"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minos/internal/cluster"
	"minos/internal/descriptor"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/voice"
	"minos/internal/wire"
)

// action names the user action a layer call is made for: its request id
// and the span the call's span hangs under.
type action struct{ req, span uint64 }

// tracedBackend is the workstation.Backend seen by one traced session: it
// times every call into the shared cluster.Client from outside and tags
// the span with the session's current action. One wrapper serves exactly
// one session, so "current action" is unambiguous even when the gateway
// opens an object without passing a context down.
type tracedBackend struct {
	*cluster.Client
	tr    *tracer
	cur   atomic.Pointer[action]
	check func(res []wire.MiniatureResult) // verifies every miniature seen
}

func newTracedBackend(c *cluster.Client, tr *tracer, check func([]wire.MiniatureResult)) *tracedBackend {
	return &tracedBackend{Client: c, tr: tr, check: check}
}

func (b *tracedBackend) begin(a *action) { b.cur.Store(a) }
func (b *tracedBackend) end()            { b.cur.Store(nil) }

func (b *tracedBackend) record(name string, start int64) {
	s := span{ID: b.tr.newID(), Name: name, Start: start, End: b.tr.now()}
	if a := b.cur.Load(); a != nil {
		s.Req, s.Parent = a.req, a.span
	}
	b.tr.add(s)
}

func (b *tracedBackend) QueryCtx(ctx context.Context, terms ...string) ([]object.ID, time.Duration, error) {
	t := b.tr.now()
	ids, d, err := b.Client.QueryCtx(ctx, terms...)
	b.record("cluster.query", t)
	return ids, d, err
}

func (b *tracedBackend) QueryPlannedCtx(ctx context.Context, q index.Query) ([]object.ID, time.Duration, error) {
	t := b.tr.now()
	ids, d, err := b.Client.QueryPlannedCtx(ctx, q)
	b.record("cluster.query", t)
	return ids, d, err
}

func (b *tracedBackend) DescriptorCtx(ctx context.Context, id object.ID) (*descriptor.Descriptor, time.Duration, error) {
	t := b.tr.now()
	d, dur, err := b.Client.DescriptorCtx(ctx, id)
	b.record("cluster.descriptor", t)
	return d, dur, err
}

func (b *tracedBackend) ObjectPieceCtx(ctx context.Context, id object.ID, off, length uint64) ([]byte, time.Duration, error) {
	t := b.tr.now()
	p, d, err := b.Client.ObjectPieceCtx(ctx, id, off, length)
	b.record("cluster.piece", t)
	return p, d, err
}

func (b *tracedBackend) MiniaturesCtx(ctx context.Context, ids []object.ID) ([]wire.MiniatureResult, time.Duration, error) {
	t := b.tr.now()
	res, d, err := b.Client.MiniaturesCtx(ctx, ids)
	b.record("cluster.miniatures", t)
	if err == nil && b.check != nil {
		b.check(res)
	}
	return res, d, err
}

// StartMiniatures is the prefetcher's pipelined launch: the span runs from
// launch to the batch landing and is async — read-ahead beside the step,
// not on its blocking path.
func (b *tracedBackend) StartMiniatures(ctx context.Context, ids []object.ID) wire.MiniatureBatch {
	s := span{ID: b.tr.newID(), Name: "cluster.miniatures_prefetch", Start: b.tr.now(), Async: true}
	if a := b.cur.Load(); a != nil {
		s.Req, s.Parent = a.req, a.span
	}
	return &tracedBatch{MiniatureBatch: b.Client.StartMiniatures(ctx, ids), b: b, s: s}
}

type tracedBatch struct {
	wire.MiniatureBatch
	b    *tracedBackend
	s    span
	once sync.Once
}

func (p *tracedBatch) Wait() ([]wire.MiniatureResult, time.Duration, error) {
	res, d, err := p.MiniatureBatch.Wait()
	p.once.Do(func() {
		p.s.End = p.b.tr.now()
		p.b.tr.add(p.s)
	})
	if err == nil && p.b.check != nil {
		p.b.check(res)
	}
	return res, d, err
}

func (b *tracedBackend) ModeCtx(ctx context.Context, id object.ID) (object.Mode, error) {
	t := b.tr.now()
	m, err := b.Client.ModeCtx(ctx, id)
	b.record("cluster.mode", t)
	return m, err
}

func (b *tracedBackend) VoicePreviewCtx(ctx context.Context, id object.ID) (*voice.Part, time.Duration, error) {
	t := b.tr.now()
	p, d, err := b.Client.VoicePreviewCtx(ctx, id)
	b.record("cluster.voice_preview", t)
	return p, d, err
}

func (b *tracedBackend) VoiceStreamCtx(ctx context.Context, id object.ID, from uint64, window int) (wire.VoiceStreamInfo, wire.StreamConn, error) {
	t := b.tr.now()
	info, sc, err := b.Client.VoiceStreamCtx(ctx, id, from, window)
	b.record("cluster.voice_open", t)
	return info, sc, err
}

// Close leaves the shared client open: the fleet set-up owns it.
func (b *tracedBackend) Close() error { return nil }

// --- HTTP: the gateway handler wrapper and the client-side queue probe ---

// reqHeader carries the benchmark's request id and action span id to the
// handler wrapper, which links its span under the client's action.
const reqHeader = "X-Perfbench-Req"

// tracedHandler wraps the gateway's http.Handler: it times each request
// and points the session's traced backend at the request while it runs.
type tracedHandler struct {
	h        http.Handler
	tr       *tracer
	backends map[uint64]*tracedBackend // by gateway session id
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req, parent uint64
	if v := r.Header.Get(reqHeader); v != "" {
		if a, b, ok := strings.Cut(v, "/"); ok {
			req, _ = strconv.ParseUint(a, 10, 64)
			parent, _ = strconv.ParseUint(b, 10, 64)
		}
	}
	sid, kind := routeOf(r.URL.Path)
	s := span{ID: th.tr.newID(), Parent: parent, Req: req, Name: "gateway." + kind, Start: th.tr.now()}
	be := th.backends[sid]
	if be != nil {
		be.begin(&action{req: req, span: s.ID})
	}
	th.h.ServeHTTP(w, r)
	if be != nil {
		be.end()
	}
	s.End = th.tr.now()
	th.tr.add(s)
}

// routeOf extracts the session id and the handler kind from a gateway path
// such as /session/7/step or /session/7/mini/1003.png.
func routeOf(path string) (uint64, string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) < 3 || parts[0] != "session" {
		return 0, "other"
	}
	sid, _ := strconv.ParseUint(parts[1], 10, 64)
	kind := parts[2]
	switch kind {
	case "view.png":
		kind = "view"
	}
	return sid, kind
}

// queueProbe records, as spans under the action, how long each of its
// HTTP requests waited for one of the client's few keep-alive
// connections, and adds the waits up in waited.
func queueProbe(ctx context.Context, tr *tracer, a *action, waited *int64) context.Context {
	var start int64
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn: func(string) { start = tr.now() },
		GotConn: func(httptrace.GotConnInfo) {
			end := tr.now()
			*waited += end - start
			tr.add(span{ID: tr.newID(), Parent: a.span, Req: a.req, Name: "client.conn_wait", Start: start, End: end})
		},
	})
}

// --- wire: the shard listener wrapper ---

// opNames maps the mux request op byte to the name used in per-layer
// metrics.
var opNames = map[byte]string{
	wire.OpQuery: "query", wire.OpDescriptor: "descriptor", wire.OpReadPiece: "read_piece",
	wire.OpMode: "mode", wire.OpVoicePreview: "voice_preview", wire.OpStats: "stats",
	wire.OpMiniatures: "miniatures", wire.OpClusterMap: "cluster_map",
	wire.OpVoiceStream: "voice_open", wire.OpMiniatureStream: "miniature_stream",
	wire.OpQueryPlanned: "query_planned",
}

// wireTap collects what every traced shard connection saw: server
// residence per op (request frame fully read → first response byte
// written), frame and byte counts in both directions.
type wireTap struct {
	tr        *tracer
	framesIn  atomic.Int64
	framesOut atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
}

type tapListener struct {
	net.Listener
	tap *wireTap
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: l.tap, pending: map[uint32]pendingReq{}}, nil
}

type pendingReq struct {
	op    byte
	ready int64
}

// frameScanner follows the documented framing — a 4-byte big-endian
// length, then the frame — across arbitrary read/write chunking. The first
// frame of a connection is the lock-step HELLO; every later frame starts
// with a u32 correlation id, then the op (requests) or status (responses).
type frameScanner struct {
	hdr    [9]byte // length + correlation id + op/status
	have   int
	remain int // body bytes of the current frame still to pass
	frames int
}

// feed consumes p. onHead fires once the current frame's correlation id
// and op/status byte have passed, onEnd once its last byte has. Callers
// stamp both with the time of the Read or Write that carried p.
func (f *frameScanner) feed(p []byte, onHead func(corr uint32, code byte, hello bool), onEnd func(corr uint32, code byte, hello bool)) {
	for len(p) > 0 {
		if f.remain == 0 && f.have < 4 {
			n := copy(f.hdr[f.have:4], p)
			f.have += n
			p = p[n:]
			if f.have < 4 {
				return
			}
			f.remain = int(binary.BigEndian.Uint32(f.hdr[:4]))
			if f.remain == 0 {
				f.reset()
			}
			continue
		}
		hello := f.frames == 0
		need := 5 // corr + op
		if hello {
			need = 1
		}
		if f.have < 4+need {
			n := min(len(p), 4+need-f.have, f.remain)
			copy(f.hdr[f.have:], p[:n])
			f.have += n
			f.remain -= n
			p = p[n:]
			if f.have == 4+need || f.remain == 0 {
				onHead(f.corr(hello), f.code(hello), hello)
			}
		} else {
			n := min(len(p), f.remain)
			f.remain -= n
			p = p[n:]
		}
		if f.remain == 0 {
			onEnd(f.corr(hello), f.code(hello), hello)
			f.reset()
		}
	}
}

func (f *frameScanner) corr(hello bool) uint32 {
	if hello || f.have < 8 {
		return 0
	}
	return binary.BigEndian.Uint32(f.hdr[4:8])
}

func (f *frameScanner) code(hello bool) byte {
	if hello {
		if f.have > 4 {
			return f.hdr[4]
		}
		return 0
	}
	if f.have < 9 {
		return 0
	}
	return f.hdr[8]
}

func (f *frameScanner) reset() { f.have, f.remain = 0, 0; f.frames++ }

type tapConn struct {
	net.Conn
	tap *wireTap

	in  frameScanner // touched only by the server's single read loop
	mu  sync.Mutex   // guards out and pending (writers and the reader)
	out frameScanner

	pending map[uint32]pendingReq
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.tap.bytesIn.Add(int64(n))
		now := c.tap.tr.now()
		c.in.feed(p[:n], func(uint32, byte, bool) {}, func(corr uint32, op byte, hello bool) {
			c.tap.framesIn.Add(1)
			if hello || op == wire.OpStreamCredit || op == wire.OpStreamCancel {
				return
			}
			c.mu.Lock()
			c.pending[corr] = pendingReq{op: op, ready: now}
			c.mu.Unlock()
		})
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	now := c.tap.tr.now()
	c.mu.Lock()
	c.out.feed(p, func(corr uint32, _ byte, hello bool) {
		c.tap.framesOut.Add(1)
		if hello {
			return
		}
		if pr, ok := c.pending[corr]; ok {
			delete(c.pending, corr)
			name := opNames[pr.op]
			if name == "" {
				name = "op" + strconv.Itoa(int(pr.op))
			}
			c.tap.tr.add(span{ID: c.tap.tr.newID(), Name: "server." + name, Start: pr.ready, End: now})
		}
	}, func(uint32, byte, bool) {})
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	c.tap.bytesOut.Add(int64(n))
	return n, err
}
