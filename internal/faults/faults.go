// Package faults injects deterministic transport faults for resilience
// testing: dropped frames, slow-device stalls, truncated and corrupted
// responses, and connection resets. An Injector wraps any wire.Transport;
// the fault schedule is driven by a seeded PRNG, so a failing run replays
// exactly from its seed.
//
// The injector outlives any one connection: a client whose redial function
// wraps the fresh transport with the same injector (WrapRedial) keeps
// drawing from the same seeded schedule across reconnects, which is what
// the E-FAULT experiment and the interop fault matrix rely on.
//
// Every fault is detectable by construction. The wire protocol carries no
// checksums, so arbitrary bit flips could silently decode; instead,
// truncation cuts the frame below its declared contents and corruption
// clobbers the declared payload length — both guarantee the client sees
// wire.ErrShort, a classified-retryable integrity failure.
package faults

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"minos/internal/wire"
)

// Config sets per-exchange fault probabilities (each in [0,1]; they are
// cumulative and should sum to at most 1 — at most one fault fires per
// exchange) and fault shapes.
type Config struct {
	// Seed drives the deterministic schedule. The same seed and traffic
	// order replay the same faults.
	Seed int64

	// Drop is the probability the request frame vanishes: the server never
	// sees it and the call fails like a per-call timeout
	// (wire.ErrCallTimeout, retryable, connection intact).
	Drop float64
	// Reset is the probability the connection dies mid-call: the call and
	// every later one on this transport fail with wire.ErrTransportClosed
	// until the client redials.
	Reset float64
	// Truncate is the probability the response frame loses its tail
	// (decodes to wire.ErrShort).
	Truncate float64
	// Corrupt is the probability the response frame's declared payload
	// length is clobbered (decodes to wire.ErrShort).
	Corrupt float64
	// Stall is the probability the exchange is delayed by StallFor — the
	// slow-device case: the call succeeds, late.
	Stall float64

	// StallFor is the added latency of a stall fault (default 2ms).
	StallFor time.Duration
	// DropFor is how long a dropped call appears to hang before the
	// simulated watchdog fires (default 1ms). Real transports would block
	// until a deadline; the injector compresses that wait so tests stay
	// fast.
	DropFor time.Duration
}

func (c Config) withDefaults() Config {
	if c.StallFor <= 0 {
		c.StallFor = 2 * time.Millisecond
	}
	if c.DropFor <= 0 {
		c.DropFor = time.Millisecond
	}
	return c
}

// Stats counts injected faults.
type Stats struct {
	Calls     int64
	Drops     int64
	Resets    int64
	Truncates int64
	Corrupts  int64
	Stalls    int64
}

// kind is the fault chosen for one exchange.
type kind int

const (
	kindNone kind = iota
	kindDrop
	kindReset
	kindTruncate
	kindCorrupt
	kindStall
)

// Injector owns the seeded fault schedule. One injector may wrap many
// transports (including successive reconnects); rolls are serialized, so
// the schedule is deterministic for a deterministic traffic order.
type Injector struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg Config

	calls     atomic.Int64
	drops     atomic.Int64
	resets    atomic.Int64
	truncates atomic.Int64
	corrupts  atomic.Int64
	stalls    atomic.Int64
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// Stats returns the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Calls:     in.calls.Load(),
		Drops:     in.drops.Load(),
		Resets:    in.resets.Load(),
		Truncates: in.truncates.Load(),
		Corrupts:  in.corrupts.Load(),
		Stalls:    in.stalls.Load(),
	}
}

// roll draws the fault (or none) for one exchange.
func (in *Injector) roll() kind {
	in.mu.Lock()
	r := in.rng.Float64()
	in.mu.Unlock()
	in.calls.Add(1)
	c := in.cfg
	for _, f := range []struct {
		p float64
		k kind
		n *atomic.Int64
	}{
		{c.Drop, kindDrop, &in.drops},
		{c.Reset, kindReset, &in.resets},
		{c.Truncate, kindTruncate, &in.truncates},
		{c.Corrupt, kindCorrupt, &in.corrupts},
		{c.Stall, kindStall, &in.stalls},
	} {
		if r < f.p {
			f.n.Add(1)
			return f.k
		}
		r -= f.p
	}
	return kindNone
}

// Wrap returns t with this injector's faults applied to every exchange.
//
// The wrapper deliberately does not forward pipelining (wire.Pipeliner):
// the client falls back to one goroutine per in-flight call, each of which
// round-trips through the injector, so no exchange escapes the schedule.
func (in *Injector) Wrap(t wire.Transport) *Transport {
	return &Transport{in: in, t: t}
}

// WrapRedial adapts a dial function so every transport it produces is
// wrapped by this injector — the shape EnableReconnect wants:
//
//	client.EnableReconnect(inj.WrapRedial(func() (wire.Transport, error) {
//		return wire.DialMux(addr)
//	}))
func (in *Injector) WrapRedial(dial func() (wire.Transport, error)) func() (wire.Transport, error) {
	return func() (wire.Transport, error) {
		t, err := dial()
		if err != nil {
			return nil, err
		}
		return in.Wrap(t), nil
	}
}

// Transport is one fault-injected connection. A reset fault breaks it
// permanently (like a real dead TCP connection); recovery requires the
// client to redial, typically through WrapRedial.
type Transport struct {
	in     *Injector
	t      wire.Transport
	broken atomic.Bool
}

// Unwrap returns the underlying transport (tests use it to reach
// transport-specific introspection such as MuxTransport.PendingCalls).
func (ft *Transport) Unwrap() wire.Transport { return ft.t }

// RoundTripCtx implements wire.Transport, applying at most one fault to the
// exchange.
func (ft *Transport) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	if ft.broken.Load() {
		return nil, fmt.Errorf("faults: connection is reset: %w", wire.ErrTransportClosed)
	}
	k := ft.in.roll()
	switch k {
	case kindReset:
		ft.broken.Store(true)
		ft.t.Close()
		return nil, fmt.Errorf("faults: connection reset mid-call: %w", wire.ErrTransportClosed)
	case kindDrop:
		if err := sleepCtx(ctx, ft.in.cfg.DropFor); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("faults: request frame dropped: %w", wire.ErrCallTimeout)
	case kindStall:
		if err := sleepCtx(ctx, ft.in.cfg.StallFor); err != nil {
			return nil, err
		}
	}
	resp, err := ft.t.RoundTripCtx(ctx, req)
	if err != nil {
		return nil, err
	}
	switch k {
	case kindTruncate:
		// Cut below the response header (13 bytes) or into the payload:
		// either way the decoder runs out of declared bytes → ErrShort.
		return append([]byte(nil), resp[:len(resp)*2/3]...), nil
	case kindCorrupt:
		if len(resp) >= 13 {
			// Clobber the declared payload length: the decoder sees a
			// frame claiming ~4 GiB of contents it does not have → ErrShort.
			damaged := append([]byte(nil), resp...)
			binary.BigEndian.PutUint32(damaged[9:13], 0xFFFFFFFF)
			return damaged, nil
		}
		return append([]byte(nil), resp[:len(resp)*2/3]...), nil
	}
	return resp, nil
}

// Close implements wire.Transport.
func (ft *Transport) Close() error { return ft.t.Close() }

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
