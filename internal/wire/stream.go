package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/pool"
)

// Server-push streams (protocol v3). A stream is opened like any other call
// — one request frame with a fresh correlation id — but the response is a
// sequence of frames under that same id: a header frame describing the
// media, data frames each carrying a byte-addressed chunk, and an end frame
// closing the stream. The sender is paced by credit-based flow control: the
// open request grants an initial byte window, the client tops it up with
// credit frames as it consumes, and the server never sends a data payload
// beyond the granted window — so a stalled consumer stalls only its own
// stream, never the mux (batched calls keep flowing on the shared
// connection, and the per-connection in-flight semaphore is not held by
// streams at all).
//
// Stream frames reuse the ordinary response header layout
// [status u8][device time u64][payload length u32], with three dedicated
// status codes; data payloads lead with the chunk's absolute byte offset so
// a resumed stream (replica failover) re-opens at exactly the first
// undelivered byte. Open-time failures (unknown object, admission shed)
// travel as ordinary error responses under the stream's id, keeping the
// client's retry/fallback classification identical to the batch path.

// Stream op codes (see the op table in wire.go; these require protocol v3).
const (
	// OpVoiceStream streams the raw PCM region of an object's first voice
	// part as byte-addressed chunks: [id u64][from u64][window u32].
	OpVoiceStream = 13
	// OpMiniatureStream streams an object's miniature as coarse-rows-first
	// progressive passes (see image.ProgressivePasses), same request shape.
	OpMiniatureStream = 14
	// OpStreamCredit grants the stream matching its correlation id n more
	// bytes of send window: [n u32].
	OpStreamCredit = 15
	// OpStreamCancel tears down the stream matching its correlation id; the
	// server stops producing and sends nothing further.
	OpStreamCancel = 16
)

// Stream frame status codes (the response statuses 0..2 stay untouched).
const (
	statusStreamHdr  = 3 // payload: producer-specific stream metadata
	statusStreamData = 4 // payload: [offset u64][chunk bytes]
	statusStreamEnd  = 5 // payload: [flag u8][error message if flag != 0]
)

// StreamChunkBytes is the voice producer's chunk size: two device blocks,
// so a chunk is one or two block-cache lookups and the page-sized pooled
// buffers of the zero-allocation serve path are recycled per chunk.
const StreamChunkBytes = 4096

// maxStreamCredit saturates a stream's accumulated send window. A hostile
// client replaying huge credit grants must not wrap the signed accumulator
// into a negative (wedged) or absurd window; past this cap further grants
// are a no-op until the window drains.
const maxStreamCredit = int64(1) << 40

// ErrStreamUnsupported reports a transport that cannot carry server-push
// streams: it has no stream support at all, or HELLO negotiated a protocol
// before v3. Callers fall back to the single-frame batch ops.
var ErrStreamUnsupported = errors.New("wire: transport does not support streams")

// errStreamCancelled is the producer-side signal that the client cancelled
// (or the connection died) mid-stream; the serving loop unwinds silently.
var errStreamCancelled = errors.New("wire: stream cancelled")

// StreamFallback reports whether a stream-open failure means the peer
// simply lacks the stream path (rather than the call failing), so the
// caller should retry via the legacy single-frame op: the transport never
// negotiated streams, or an older server rejected the op as unknown.
func StreamFallback(err error) bool {
	return errors.Is(err, ErrStreamUnsupported) || isUnknownOp(err)
}

// isUnknownOp reports whether err is a server rejection of an op it does
// not implement (an older protocol peer).
func isUnknownOp(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unknown op")
}

// --- frame codec ---

// parseStreamFrame splits one stream frame into status, device time and
// payload. The layout is the ordinary response header, so the same hostile
// inputs (truncated header, payload length past the frame) are rejected the
// same way.
func parseStreamFrame(frame []byte) (status byte, dev time.Duration, payload []byte, err error) {
	if len(frame) < respHeader {
		return 0, 0, nil, errShort
	}
	n := binary.BigEndian.Uint32(frame[9:13])
	if respHeader+int(n) > len(frame) {
		return 0, 0, nil, errShort
	}
	return frame[0], time.Duration(binary.BigEndian.Uint64(frame[1:9])), frame[respHeader : respHeader+int(n)], nil
}

// parseStreamData splits a data-frame payload into offset and chunk.
func parseStreamData(payload []byte) (off uint64, chunk []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, errShort
	}
	return binary.BigEndian.Uint64(payload), payload[8:], nil
}

// encodeStreamOpen builds a stream-open request.
func encodeStreamOpen(op byte, id object.ID, from uint64, window int) []byte {
	req := appendU64([]byte{op}, uint64(id))
	req = appendU64(req, from)
	return appendU32(req, uint32(window))
}

// --- producer side ---

// StreamSink receives a producing handler's stream. Data blocks until the
// client has granted enough window (mux) or accounts virtual transfer time
// (LocalTransport); both copy the chunk before returning, so the producer
// recycles its pooled buffer immediately after the call — the
// buffer-ownership hand-off never outlives one chunk.
type StreamSink interface {
	// Grant adds n bytes of send credit (no-op for sinks without flow
	// control). The open request's initial window arrives through it.
	Grant(n uint32)
	// Header sends the stream's metadata frame; dev is the device time
	// spent locating the media.
	Header(meta []byte, dev time.Duration) error
	// Data sends one chunk at its absolute byte offset; dev is the device
	// time spent producing it.
	Data(off uint64, chunk []byte, dev time.Duration) error
}

// ServeStream serves one stream-open request on behalf of the anonymous
// tenant.
func (h *Handler) ServeStream(req []byte, sink StreamSink) error {
	return h.ServeStreamAs(0, req, sink)
}

// ServeStreamAs parses a stream-open request and runs the producer against
// sink, attributed to tenant. A nil return means the stream completed (the
// caller sends the clean end frame); an error before the header is an
// open-time failure the caller reports as an ordinary error response.
func (h *Handler) ServeStreamAs(tenant uint64, req []byte, sink StreamSink) error {
	c := &cursor{data: req}
	op, err := c.u8()
	if err != nil {
		return err
	}
	id, err := c.u64()
	if err != nil {
		return err
	}
	from, err := c.u64()
	if err != nil {
		return err
	}
	window, err := c.u32()
	if err != nil {
		return err
	}
	sink.Grant(window)
	switch op {
	case OpVoiceStream:
		return h.serveVoiceStream(tenant, object.ID(id), from, sink)
	case OpMiniatureStream:
		return h.serveMiniatureStream(object.ID(id), from, sink)
	default:
		return fmt.Errorf("wire: unknown op %d", op)
	}
}

// serveVoiceStream cuts the PCM region of the object's voice part into
// StreamChunkBytes chunks behind the seek semaphore. Admission is paid once
// at open (a stream is one logical request, however many chunks it emits)
// and each chunk is read into one pooled buffer reused for the stream's
// lifetime — steady state allocates nothing per chunk.
func (h *Handler) serveVoiceStream(tenant uint64, id object.ID, from uint64, sink StreamSink) error {
	release, err := h.Srv.AdmitAs(tenant)
	if err != nil {
		return err
	}
	defer release()
	info, dur, err := h.Srv.VoicePCMInfoAs(tenant, id)
	if err != nil {
		return err
	}
	if from > info.Bytes || from%2 != 0 {
		return fmt.Errorf("wire: voice stream offset %d invalid for %d PCM bytes", from, info.Bytes)
	}
	meta := appendU32(nil, uint32(info.Rate))
	meta = appendU64(meta, info.Bytes)
	if err := sink.Header(meta, dur); err != nil {
		return err
	}
	buf := pool.Bytes.Get(StreamChunkBytes)
	defer func() { pool.Bytes.Put(buf) }()
	for off := from; off < info.Bytes; {
		n := uint64(StreamChunkBytes)
		if off+n > info.Bytes {
			n = info.Bytes - off
		}
		var t time.Duration
		buf, t, err = h.Srv.ReadPieceAppend(tenant, info.Off+off, n, buf[:0])
		if err != nil {
			return err
		}
		if err := sink.Data(off, buf, t); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// serveMiniatureStream emits the object's miniature as progressive passes:
// one data frame per pass, coarse rows first, addressed by the pass's byte
// offset in the concatenated pass stream. Miniatures are in-memory (no
// admission, no device time); the per-pass buffer is pooled and reused.
func (h *Handler) serveMiniatureStream(id object.ID, from uint64, sink StreamSink) error {
	bm := h.Srv.Miniature(id)
	if bm == nil {
		return fmt.Errorf("wire: no miniature for object %d", id)
	}
	total := uint64(img.PassOffset(bm.W, bm.H, img.ProgressivePasses))
	startPass := 0
	if from != 0 && from != total {
		var ok bool
		startPass, ok = img.PassAtOffset(bm.W, bm.H, from)
		if !ok {
			return fmt.Errorf("wire: miniature stream offset %d is not a pass boundary", from)
		}
	}
	meta := appendU32(nil, uint32(bm.W))
	meta = appendU32(meta, uint32(bm.H))
	meta = appendU32(meta, img.ProgressivePasses)
	meta = appendU64(meta, total)
	if err := sink.Header(meta, 0); err != nil {
		return err
	}
	if from == total {
		return nil // resume at the very end: nothing left but the end frame
	}
	maxPass := 0
	for p := 0; p < img.ProgressivePasses; p++ {
		if sz := img.PassSize(bm.W, bm.H, p); sz > maxPass {
			maxPass = sz
		}
	}
	buf := pool.Bytes.Get(maxPass)
	defer func() { pool.Bytes.Put(buf) }()
	for p := startPass; p < img.ProgressivePasses; p++ {
		buf = bm.AppendPassRows(buf[:0], p)
		if err := sink.Data(uint64(img.PassOffset(bm.W, bm.H, p)), buf, 0); err != nil {
			return err
		}
	}
	return nil
}

// --- server side: mux stream machinery ---

// srvStream is the server-side flow-control state of one open stream on a
// mux connection: the granted-but-unsent byte window, topped up by credit
// frames and drained by data frames, plus the cancel flag raised by a
// client cancel frame or connection death.
type srvStream struct {
	mu        sync.Mutex
	cond      *sync.Cond
	credit    int64
	cancelled bool
}

func newSrvStream() *srvStream {
	s := &srvStream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// grant adds window, saturating at maxStreamCredit (credit-overflow guard).
func (s *srvStream) grant(n uint32) {
	s.mu.Lock()
	s.credit += int64(n)
	if s.credit > maxStreamCredit {
		s.credit = maxStreamCredit
	}
	s.mu.Unlock()
	s.cond.Signal()
}

func (s *srvStream) cancel() {
	s.mu.Lock()
	s.cancelled = true
	s.mu.Unlock()
	s.cond.Signal()
}

// take blocks until n bytes of window are available (consuming them) or the
// stream is cancelled (returning false).
func (s *srvStream) take(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.cancelled {
			return false
		}
		if s.credit >= int64(n) {
			s.credit -= int64(n)
			return true
		}
		s.cond.Wait()
	}
}

// srvStreams is a mux connection's registry of open streams, keyed by
// correlation id. The read loop registers a stream before spawning its
// producer goroutine, so a credit frame racing the open can never miss.
type srvStreams struct {
	mu   sync.Mutex
	m    map[uint32]*srvStream
	dead bool
}

func newSrvStreams() *srvStreams { return &srvStreams{m: map[uint32]*srvStream{}} }

// open registers a fresh stream; nil means duplicate id or dead connection.
func (r *srvStreams) open(id uint32) *srvStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return nil
	}
	if _, dup := r.m[id]; dup {
		return nil
	}
	s := newSrvStream()
	r.m[id] = s
	return s
}

func (r *srvStreams) remove(id uint32) {
	r.mu.Lock()
	delete(r.m, id)
	r.mu.Unlock()
}

// grant routes a credit frame; unknown ids (cancelled, finished, hostile)
// are dropped.
func (r *srvStreams) grant(id uint32, n uint32) {
	r.mu.Lock()
	s := r.m[id]
	r.mu.Unlock()
	if s != nil {
		s.grant(n)
	}
}

func (r *srvStreams) cancel(id uint32) {
	r.mu.Lock()
	s := r.m[id]
	r.mu.Unlock()
	if s != nil {
		s.cancel()
	}
}

// cancelAll raises cancel on every open stream (connection death); producer
// goroutines blocked in take unwind, and no new stream can open.
func (r *srvStreams) cancelAll() {
	r.mu.Lock()
	r.dead = true
	all := make([]*srvStream, 0, len(r.m))
	for _, s := range r.m {
		all = append(all, s)
	}
	r.mu.Unlock()
	for _, s := range all {
		s.cancel()
	}
}

// writeStreamFrame stages one stream frame —
// [length u32][id u32][status u8][dev u64][plen u32][off u64?][payload] —
// in an exactly-sized pooled buffer and writes it under the connection's
// write lock. The pooled staging keeps the per-chunk serve path free of
// heap allocation.
func writeStreamFrame(w io.Writer, writeMu *sync.Mutex, id uint32, status byte, dev time.Duration, off uint64, hasOff bool, payload []byte) error {
	n := len(payload)
	if hasOff {
		n += 8
	}
	out := pool.Bytes.Get(8 + respHeader + n)
	binary.BigEndian.PutUint32(out, uint32(4+respHeader+n))
	binary.BigEndian.PutUint32(out[4:], id)
	out[8] = status
	binary.BigEndian.PutUint64(out[9:], uint64(dev))
	binary.BigEndian.PutUint32(out[17:], uint32(n))
	p := 8 + respHeader
	if hasOff {
		binary.BigEndian.PutUint64(out[p:], off)
		p += 8
	}
	copy(out[p:], payload)
	writeMu.Lock()
	_, err := w.Write(out)
	writeMu.Unlock()
	pool.Bytes.Put(out)
	return err
}

// muxStreamSink writes a producer's stream onto the mux connection, pacing
// data frames by the stream's credit window.
type muxStreamSink struct {
	conn       net.Conn
	writeMu    *sync.Mutex
	id         uint32
	st         *srvStream
	sentHeader bool
}

func (s *muxStreamSink) Grant(n uint32) { s.st.grant(n) }

func (s *muxStreamSink) Header(meta []byte, dev time.Duration) error {
	s.sentHeader = true
	return writeStreamFrame(s.conn, s.writeMu, s.id, statusStreamHdr, dev, 0, false, meta)
}

func (s *muxStreamSink) Data(off uint64, chunk []byte, dev time.Duration) error {
	// Credit counts data payload bytes. Blocking here — not in the read
	// loop — is the whole design: an ungranted stream parks its own
	// goroutine while batched calls keep being served.
	if !s.st.take(len(chunk)) {
		return errStreamCancelled
	}
	return writeStreamFrame(s.conn, s.writeMu, s.id, statusStreamData, dev, off, true, chunk)
}

// serveMuxStream runs one stream-open request to completion on its own
// goroutine: producer, then the terminating frame — a clean end frame, an
// ordinary error response if nothing was streamed yet (so open-time
// failures classify exactly like batch failures, busy included), or an
// error end frame mid-stream. A cancelled stream says nothing: the client
// already tore its state down.
func serveMuxStream(conn net.Conn, writeMu *sync.Mutex, id uint32, tenant uint64, h *Handler, req []byte, st *srvStream, logf func(format string, args ...any)) {
	sink := &muxStreamSink{conn: conn, writeMu: writeMu, id: id, st: st}
	err := h.ServeStreamAs(tenant, req, sink)
	var werr error
	switch {
	case errors.Is(err, errStreamCancelled):
		return
	case err == nil:
		werr = writeStreamFrame(conn, writeMu, id, statusStreamEnd, 0, 0, false, []byte{0})
	case !sink.sentHeader:
		resp := errResp(err)
		out := muxFrame(id, resp)
		writeMu.Lock()
		_, werr = conn.Write(out)
		writeMu.Unlock()
		pool.Bytes.Put(out)
		recycleResponse(resp)
	default:
		msg := err.Error()
		pl := make([]byte, 1+len(msg))
		pl[0] = 1
		copy(pl[1:], msg)
		werr = writeStreamFrame(conn, writeMu, id, statusStreamEnd, 0, 0, false, pl)
	}
	if werr != nil && !errors.Is(werr, net.ErrClosed) {
		logf("wire: %s: stream write: %v", conn.RemoteAddr(), werr)
	}
}

// --- client side ---

// StreamChunk is one received stream data frame.
type StreamChunk struct {
	// Offset is the chunk's absolute byte offset in the streamed media
	// (PCM bytes for voice, concatenated pass stream for miniatures).
	Offset uint64
	// Data is the chunk payload. It remains valid until the next Recv.
	Data []byte
	// Dev is the server device time attributed to producing this chunk.
	Dev time.Duration
	// At is the chunk's simulated arrival time on a modelled link
	// (LocalTransport); zero on real transports.
	At time.Duration
}

// StreamConn is the client side of one open stream.
type StreamConn interface {
	// Recv returns the next chunk; io.EOF reports a clean stream end.
	Recv() (StreamChunk, error)
	// Grant tops the server's send window up by n bytes. Consumers grant
	// as they drain, keeping roughly one window in flight.
	Grant(n int)
	// Close tears the stream down (cancelling it if still open).
	Close() error
}

// StreamOpener is a transport that can open server-push streams.
type StreamOpener interface {
	// OpenStream sends a stream-open request and blocks until the header
	// frame (returning its metadata and device time) or an open failure.
	OpenStream(ctx context.Context, req []byte) (meta []byte, dev time.Duration, sc StreamConn, err error)
}

// VoiceStreamInfo is the header metadata of a voice stream.
type VoiceStreamInfo struct {
	Rate       int    // samples per second
	TotalBytes uint64 // full PCM byte length of the part (2 bytes/sample)
}

// MiniatureStreamInfo is the header metadata of a progressive miniature
// stream.
type MiniatureStreamInfo struct {
	W, H       int
	Passes     int
	TotalBytes uint64
}

func parseVoiceStreamMeta(meta []byte) (VoiceStreamInfo, error) {
	c := &cursor{data: meta}
	rate, err := c.u32()
	if err != nil {
		return VoiceStreamInfo{}, err
	}
	total, err := c.u64()
	if err != nil {
		return VoiceStreamInfo{}, err
	}
	return VoiceStreamInfo{Rate: int(rate), TotalBytes: total}, nil
}

func parseMiniatureStreamMeta(meta []byte) (MiniatureStreamInfo, error) {
	c := &cursor{data: meta}
	var v [3]uint32
	for i := range v {
		x, err := c.u32()
		if err != nil {
			return MiniatureStreamInfo{}, err
		}
		v[i] = x
	}
	total, err := c.u64()
	if err != nil {
		return MiniatureStreamInfo{}, err
	}
	return MiniatureStreamInfo{W: int(v[0]), H: int(v[1]), Passes: int(v[2]), TotalBytes: total}, nil
}

// VoiceStreamCtx opens a server-push stream over the object's voice PCM,
// starting at byte offset from (must be even — samples are 2 bytes) with an
// initial credit window of window bytes. The caller receives chunks via the
// returned StreamConn, granting credit as it consumes. Fails with
// ErrStreamUnsupported (or an unknown-op server error) when the peer lacks
// the stream path — see StreamFallback; the legacy batch path is the
// fallback. Streams bypass the retry loop: a broken stream surfaces to the
// caller (the cluster layer resumes it on a replica from the last delivered
// offset).
func (c *Client) VoiceStreamCtx(ctx context.Context, id object.ID, from uint64, window int) (VoiceStreamInfo, StreamConn, error) {
	so, ok := c.Transport().(StreamOpener)
	if !ok {
		return VoiceStreamInfo{}, nil, ErrStreamUnsupported
	}
	meta, _, sc, err := so.OpenStream(ctx, encodeStreamOpen(OpVoiceStream, id, from, window))
	if err != nil {
		return VoiceStreamInfo{}, nil, err
	}
	info, err := parseVoiceStreamMeta(meta)
	if err != nil {
		sc.Close()
		return VoiceStreamInfo{}, nil, err
	}
	return info, sc, nil
}

// MiniatureStreamCtx opens a progressive miniature stream: the coarse pass
// arrives first and each chunk is one pass of interleaved rows (apply them
// with image.Progressive). from resumes at a pass boundary byte offset.
// Fallback semantics match VoiceStreamCtx.
func (c *Client) MiniatureStreamCtx(ctx context.Context, id object.ID, from uint64, window int) (MiniatureStreamInfo, StreamConn, error) {
	so, ok := c.Transport().(StreamOpener)
	if !ok {
		return MiniatureStreamInfo{}, nil, ErrStreamUnsupported
	}
	meta, _, sc, err := so.OpenStream(ctx, encodeStreamOpen(OpMiniatureStream, id, from, window))
	if err != nil {
		return MiniatureStreamInfo{}, nil, err
	}
	info, err := parseMiniatureStreamMeta(meta)
	if err != nil {
		sc.Close()
		return MiniatureStreamInfo{}, nil, err
	}
	return info, sc, nil
}

// AppendPCMSamples decodes a voice stream chunk (little-endian 2-byte
// samples, encodeVoicePart's layout) onto dst. A trailing odd byte is
// ignored; the protocol keeps chunks sample-aligned.
func AppendPCMSamples(dst []int16, b []byte) []int16 {
	for i := 0; i+1 < len(b); i += 2 {
		dst = append(dst, int16(binary.LittleEndian.Uint16(b[i:])))
	}
	return dst
}

// --- client side: mux stream ---

// errStreamClosed reports use of a stream after Close.
var errStreamClosed = errors.New("wire: stream closed")

// muxStream is the client-side state of one open stream on a MuxTransport:
// the read loop pushes this id's frames into q, Recv pops them.
type muxStream struct {
	m       *MuxTransport
	id      uint32
	timeout time.Duration // per-frame wait bound (the transport call timeout)

	mu     sync.Mutex
	q      [][]byte
	err    error // transport death
	endErr error // error carried by an error end frame
	done   bool  // end frame consumed
	closed bool
	notify chan struct{}
}

// push appends one raw frame (correlation id stripped) from the read loop.
func (s *muxStream) push(frame []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.q = append(s.q, frame)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// fail poisons the stream (connection death).
func (s *muxStream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// next blocks for the next queued frame, bounded by ctx and the per-frame
// timeout.
func (s *muxStream) next(ctx context.Context, timeout time.Duration) ([]byte, error) {
	var timeoutC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		s.mu.Lock()
		if len(s.q) > 0 {
			f := s.q[0]
			s.q = s.q[1:]
			s.mu.Unlock()
			return f, nil
		}
		if s.closed {
			s.mu.Unlock()
			return nil, errStreamClosed
		}
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return nil, err
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-timeoutC:
			return nil, fmt.Errorf("%w after %v", ErrCallTimeout, timeout)
		case <-done:
			return nil, ctx.Err()
		}
	}
}

// Recv implements StreamConn.
func (s *muxStream) Recv() (StreamChunk, error) {
	s.mu.Lock()
	if s.done {
		err := s.endErr
		s.mu.Unlock()
		if err != nil {
			return StreamChunk{}, err
		}
		return StreamChunk{}, io.EOF
	}
	s.mu.Unlock()
	for {
		frame, err := s.next(nil, s.timeout)
		if err != nil {
			return StreamChunk{}, err
		}
		status, dev, payload, perr := parseStreamFrame(frame)
		if perr != nil {
			return StreamChunk{}, perr
		}
		switch status {
		case statusStreamData:
			off, chunk, derr := parseStreamData(payload)
			if derr != nil {
				return StreamChunk{}, derr
			}
			return StreamChunk{Offset: off, Data: chunk, Dev: dev}, nil
		case statusStreamEnd:
			var endErr error
			if len(payload) >= 1 && payload[0] != 0 {
				endErr = fmt.Errorf("wire: server: %s", payload[1:])
			}
			s.mu.Lock()
			s.done = true
			s.endErr = endErr
			s.mu.Unlock()
			s.m.d.removeStream(s.id)
			if endErr != nil {
				return StreamChunk{}, endErr
			}
			return StreamChunk{}, io.EOF
		default:
			return StreamChunk{}, fmt.Errorf("wire: unexpected stream frame status %d", status)
		}
	}
}

// Grant implements StreamConn: it sends a credit frame under the stream's
// correlation id. Write failures are deliberately ignored — the read loop
// surfaces connection death to Recv with a classified error.
func (s *muxStream) Grant(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	dead := s.done || s.closed || s.err != nil
	s.mu.Unlock()
	if dead {
		return
	}
	msg := appendU32([]byte{OpStreamCredit}, uint32(n))
	out := muxFrame(s.id, msg)
	s.m.writeMu.Lock()
	s.m.conn.Write(out)
	s.m.writeMu.Unlock()
	pool.Bytes.Put(out)
}

// Close implements StreamConn: the stream's demux slot is released, and if
// the server may still be producing a cancel frame tells it to stop.
func (s *muxStream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sendCancel := !s.done && s.err == nil
	s.q = nil
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	s.m.d.removeStream(s.id)
	if sendCancel {
		out := muxFrame(s.id, []byte{OpStreamCancel})
		s.m.writeMu.Lock()
		s.m.conn.Write(out)
		s.m.writeMu.Unlock()
		pool.Bytes.Put(out)
	}
	return nil
}

// OpenStream implements StreamOpener over the multiplexed connection. The
// stream registers in the demultiplexer before the request goes out, so the
// header can never race past it; the call blocks until the header frame or
// an open failure (which arrives as an ordinary error response under the
// stream's id — same classification as any batch call).
func (m *MuxTransport) OpenStream(ctx context.Context, req []byte) ([]byte, time.Duration, StreamConn, error) {
	if m.version < ProtocolV3 {
		return nil, 0, nil, ErrStreamUnsupported
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, nil, err
	}
	timeout := time.Duration(m.callTimeout.Load())
	id := m.nextID.Add(1)
	st := &muxStream{m: m, id: id, timeout: timeout, notify: make(chan struct{}, 1)}
	if err := m.d.registerStream(id, st); err != nil {
		return nil, 0, nil, err
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
		m.d.removeStream(id)
		return nil, 0, nil, werr
	}
	frame, err := st.next(ctx, timeout)
	if err != nil {
		st.Close()
		return nil, 0, nil, err
	}
	if len(frame) >= 1 && frame[0] == statusStreamHdr {
		_, dev, meta, perr := parseStreamFrame(frame)
		if perr != nil {
			st.Close()
			return nil, 0, nil, perr
		}
		return meta, dev, st, nil
	}
	// Not a stream frame: an open-time failure delivered as an ordinary
	// response (or a protocol violation). The server already finished with
	// this id — release the slot without cancelling.
	s := st
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	s.Close()
	payload, _, perr := parseResponse(frame)
	if perr != nil {
		return nil, 0, nil, perr
	}
	return nil, 0, nil, fmt.Errorf("wire: stream open got non-stream response (%d bytes)", len(payload))
}

// OpenStreams reports the number of registered client-side streams (leak
// checks, mirroring PendingCalls).
func (m *MuxTransport) OpenStreams() int { return m.d.streamLen() }

// --- LocalTransport streams ---

// localStreamSink runs a producer synchronously against the simulated
// link's arithmetic timing model: the server's virtual clock starts when
// the request lands, each frame occupies the link for its bandwidth cost,
// and a chunk's arrival time is its send-completion plus propagation
// latency. Device time (the dev argument) advances the server clock —
// production and transmission interleave exactly as they would on the wire,
// deterministically.
type localStreamSink struct {
	l     *LocalTransport
	clock time.Duration // server-side virtual time

	meta      []byte
	headerDev time.Duration
	chunks    []StreamChunk
	sentAny   bool
	bytes     int64 // stream frame bytes, for link accounting
	linkCost  time.Duration
}

func (s *localStreamSink) Grant(uint32) {} // synchronous production: credits are satisfied by construction

func (s *localStreamSink) Header(meta []byte, dev time.Duration) error {
	s.sentAny = true
	s.meta = append([]byte(nil), meta...)
	s.headerDev = dev
	s.clock += dev
	fsz := respHeader + len(meta)
	c := s.l.byteCost(fsz)
	s.clock += c
	s.bytes += int64(fsz)
	s.linkCost += c
	return nil
}

func (s *localStreamSink) Data(off uint64, chunk []byte, dev time.Duration) error {
	s.clock += dev
	fsz := respHeader + 8 + len(chunk)
	c := s.l.byteCost(fsz)
	sendDone := s.clock + c
	s.chunks = append(s.chunks, StreamChunk{
		Offset: off,
		Data:   append([]byte(nil), chunk...),
		Dev:    dev,
		At:     sendDone + s.l.Latency,
	})
	s.clock = sendDone
	s.bytes += int64(fsz)
	s.linkCost += c
	return nil
}

// localStreamConn replays the buffered chunks with their virtual arrival
// times.
type localStreamConn struct {
	chunks []StreamChunk
	pos    int
	endErr error // non-nil: the stream ended with an error end frame
	endAt  time.Duration
}

func (c *localStreamConn) Recv() (StreamChunk, error) {
	if c.pos < len(c.chunks) {
		ch := c.chunks[c.pos]
		c.pos++
		return ch, nil
	}
	if c.endErr != nil {
		return StreamChunk{}, c.endErr
	}
	return StreamChunk{At: c.endAt}, io.EOF
}

func (c *localStreamConn) Grant(int) {}

func (c *localStreamConn) Close() error { return nil }

// OpenStream implements StreamOpener on the simulated link. The producer
// runs to completion immediately (the link defers cost accounting, not
// work); chunks carry their modelled arrival times so a vclock harness can
// interleave delivery with playback deterministically.
func (l *LocalTransport) OpenStream(ctx context.Context, req []byte) ([]byte, time.Duration, StreamConn, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, 0, nil, err
		}
	}
	l.mu.Lock()
	if l.tenant == 0 {
		l.tenant = l.H.NewTenant()
	}
	tenant := l.tenant
	l.mu.Unlock()
	sink := &localStreamSink{l: l, clock: l.Latency + l.byteCost(len(req))}
	err := l.H.ServeStreamAs(tenant, req, sink)
	if err != nil && !sink.sentAny {
		return nil, 0, nil, localServerErr(err)
	}
	// End frame (clean or error): one small frame after the last chunk.
	endSize := respHeader + 1
	if err != nil {
		endSize += len(err.Error())
	}
	endCost := l.byteCost(endSize)
	endAt := sink.clock + endCost + l.Latency
	sink.bytes += int64(endSize)
	sink.linkCost += endCost
	l.mu.Lock()
	l.bytesSent += int64(len(req))
	l.bytesRecv += sink.bytes
	l.roundTrips++
	l.linkTime += 2*l.Latency + l.byteCost(len(req)) + sink.linkCost
	l.mu.Unlock()
	conn := &localStreamConn{chunks: sink.chunks, endAt: endAt}
	if err != nil {
		conn.endErr = localServerErr(err)
	}
	return sink.meta, sink.headerDev, conn, nil
}

// localServerErr classifies an in-process handler error the way the framed
// protocol would: load shedding wraps ErrServerBusy (retry/failover), other
// server errors surface as server-reported failures.
func localServerErr(err error) error {
	resp := errResp(err)
	_, _, perr := parseResponse(resp)
	recycleResponse(resp)
	if perr != nil {
		return perr
	}
	return err
}

// encodePCM is a test/experiment helper: the PCM byte image of samples in
// the archived voice-part layout.
func encodePCM(samples []int16) []byte {
	out := make([]byte, 2*len(samples))
	for i, v := range samples {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(v))
	}
	return out
}
