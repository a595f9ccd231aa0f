package cluster_test

import (
	"context"
	"reflect"
	"sync/atomic"
	"syscall"
	"testing"

	"minos/internal/cluster"
	"minos/internal/core"
	"minos/internal/demo"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/vclock"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// The Backend interface is the PR 9 API seam: one workstation.Session type
// drives a single server and a routed fleet identically. The compile-time
// assertion and the golden-trace suite below are the contract's proof for
// the cluster client; internal/workstation asserts the wire client.
var _ workstation.Backend = (*cluster.Client)(nil)

// traceStep is one observable browse event: which object the cursor landed
// on, its mode, and the miniature content hash. Two conforming backends
// over the same corpus must produce identical traces.
type traceStep struct {
	ID   object.ID
	Mode object.Mode
	Hash uint64
	Done bool
}

func traceConfig() core.Config {
	return core.Config{Screen: screen.New(240, 140), Clock: vclock.New()}
}

// browseTrace drives the golden browse: query "hospital", walk the cursor
// to the end, step back twice, then open the first visual object. The
// kill hook, when non-nil, fires after the fourth forward step —
// mid-browse, with steps still to come.
func browseTrace(t *testing.T, be workstation.Backend, kill func()) []traceStep {
	t.Helper()
	ctx := context.Background()
	sess := workstation.New(be, traceConfig())
	n, err := sess.QueryCtx(ctx, "hospital")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if n == 0 {
		t.Fatal("query matched nothing; the golden trace needs results")
	}
	var trace []traceStep
	record := func(st workstation.BrowseStep, err error) {
		if err != nil {
			t.Fatalf("browse step %d: %v", len(trace), err)
		}
		ts := traceStep{ID: st.ID, Mode: st.Mode, Done: st.Done}
		if st.Mini != nil {
			ts.Hash = st.Mini.Hash()
		}
		trace = append(trace, ts)
	}
	for i := 0; ; i++ {
		st, err := sess.NextMiniatureCtx(ctx)
		record(st, err)
		if st.Done {
			break
		}
		if i == 3 && kill != nil {
			kill()
			kill = nil
		}
	}
	record(sess.PrevMiniatureCtx(ctx))
	record(sess.PrevMiniatureCtx(ctx))
	for _, ts := range trace {
		if !ts.Done && ts.Mode != object.Audio {
			if err := sess.OpenObject(ts.ID); err != nil {
				t.Fatalf("OpenObject(%d): %v", ts.ID, err)
			}
			break
		}
	}
	sess.Detach()
	return trace
}

// TestBackendConformanceGoldenTrace runs the golden browse through a wire
// client on one unsharded server and a routed cluster client on a 3-shard
// fleet holding the same corpus: the traces must be identical.
func TestBackendConformanceGoldenTrace(t *testing.T) {
	single, err := demo.Build(1<<15, 40)
	if err != nil {
		t.Fatalf("demo.Build: %v", err)
	}
	ref := wire.NewClient(&wire.LocalTransport{H: &wire.Handler{Srv: single.Server}})
	defer ref.Close()

	f, _, _ := buildFleet(t, 3, false)
	c := dialFleet(t, f)

	want := browseTrace(t, ref, nil)
	got := browseTrace(t, c, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cluster-backed trace diverges from wire-backed:\nwant %v\ngot  %v", want, got)
	}
}

// TestBackendConformanceFailover kills a primary mid-browse: the
// cluster-backed session must complete the identical trace off the WORM
// replica, and the client must record the failover.
func TestBackendConformanceFailover(t *testing.T) {
	f, _, _ := buildFleet(t, 2, true)
	want := browseTrace(t, dialFleet(t, f), nil)

	f2, _, _ := buildFleet(t, 2, true)
	c := dialFleet(t, f2)
	got := browseTrace(t, c, func() { f2.kill("shard0") })
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("failover trace diverges from healthy trace:\nwant %v\ngot  %v", want, got)
	}
	if c.Failovers() == 0 {
		t.Fatal("primary died mid-browse but the client recorded no failovers")
	}
}

// dropOnceTransport fails exactly one exchange with a connection reset,
// simulating a dropped TCP session mid-browse.
type dropOnceTransport struct {
	inner *wire.LocalTransport
	drop  atomic.Bool
}

func (t *dropOnceTransport) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	if t.drop.CompareAndSwap(true, false) {
		return nil, syscall.ECONNRESET
	}
	return t.inner.RoundTripCtx(ctx, req)
}

func (t *dropOnceTransport) Close() error { return t.inner.Close() }

// TestBackendConformanceReconnect drops the wire connection mid-browse:
// with reconnect enabled the session must complete the identical trace on
// the redialed transport, and the client must record the reconnect.
func TestBackendConformanceReconnect(t *testing.T) {
	single, err := demo.Build(1<<15, 40)
	if err != nil {
		t.Fatalf("demo.Build: %v", err)
	}
	h := &wire.Handler{Srv: single.Server}
	ref := wire.NewClient(&wire.LocalTransport{H: h})
	want := browseTrace(t, ref, nil)
	ref.Close()

	tp := &dropOnceTransport{inner: &wire.LocalTransport{H: h}}
	c := wire.NewClient(tp)
	c.EnableReconnect(func() (wire.Transport, error) {
		return &wire.LocalTransport{H: h}, nil
	})
	defer c.Close()
	got := browseTrace(t, c, func() { tp.drop.Store(true) })
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-reconnect trace diverges:\nwant %v\ngot  %v", want, got)
	}
	if c.Reconnects() == 0 {
		t.Fatal("connection dropped mid-browse but the client recorded no reconnect")
	}
}
