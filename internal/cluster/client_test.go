package cluster_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minos/internal/cluster"
	"minos/internal/demo"
	"minos/internal/object"
	"minos/internal/server"
	"minos/internal/wire"
)

// testFleet is an in-process fleet: one wire.Handler per endpoint behind a
// Dialer, with per-endpoint kill switches for failover tests.
type testFleet struct {
	mu        sync.Mutex
	endpoints map[string]*testEndpoint
}

type testEndpoint struct {
	h      *wire.Handler
	failed atomic.Bool
}

// flakyTransport serves through a LocalTransport until its endpoint is
// killed, then fails every exchange like a dead TCP connection would.
type flakyTransport struct {
	inner  *wire.LocalTransport
	failed *atomic.Bool
}

func (t *flakyTransport) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	if t.failed.Load() {
		return nil, syscall.ECONNRESET
	}
	return t.inner.RoundTripCtx(ctx, req)
}

func (t *flakyTransport) Close() error { return t.inner.Close() }

func (f *testFleet) add(name string, srv *server.Server) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.endpoints == nil {
		f.endpoints = map[string]*testEndpoint{}
	}
	f.endpoints[name] = &testEndpoint{h: &wire.Handler{Srv: srv}}
}

func (f *testFleet) kill(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.endpoints[name].failed.Store(true)
}

func (f *testFleet) dialer() cluster.Dialer {
	return func(endpoint string) (wire.Transport, error) {
		f.mu.Lock()
		ep, ok := f.endpoints[endpoint]
		f.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("test fleet: unknown endpoint %s", endpoint)
		}
		if ep.failed.Load() {
			return nil, syscall.ECONNREFUSED
		}
		return &flakyTransport{inner: &wire.LocalTransport{H: ep.h}, failed: &ep.failed}, nil
	}
}

// buildFleet wires a demo.BuildSharded corpus into a testFleet with a
// cluster map of the given epoch installed on every server. Replica
// servers, when asked for, come from a second identical BuildSharded run —
// WORM determinism makes the second build's archives bit-identical to the
// first's, which is exactly how a real replica is provisioned.
func buildFleet(t *testing.T, shards int, replicas bool) (*testFleet, *demo.Sharded, *cluster.Map) {
	t.Helper()
	sh, err := demo.BuildSharded(1<<15, 40, shards, cluster.DefaultVnodes)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	f := &testFleet{}
	m := &cluster.Map{Epoch: 1, Vnodes: cluster.DefaultVnodes}
	var reps *demo.Sharded
	if replicas {
		if reps, err = demo.BuildSharded(1<<15, 40, shards, cluster.DefaultVnodes); err != nil {
			t.Fatalf("BuildSharded (replicas): %v", err)
		}
	}
	for i, srv := range sh.Servers {
		primary := fmt.Sprintf("shard%d", i)
		f.add(primary, srv)
		entry := cluster.Shard{ID: i, Primary: primary}
		if replicas {
			rep := fmt.Sprintf("shard%d-r", i)
			f.add(rep, reps.Servers[i])
			entry.Replicas = []string{rep}
		}
		m.Shards = append(m.Shards, entry)
	}
	installMap(f, sh, reps, m)
	return f, sh, m
}

func installMap(f *testFleet, sh, reps *demo.Sharded, m *cluster.Map) {
	enc := m.Encode()
	for _, srv := range sh.Servers {
		srv.SetClusterMap(m.Epoch, enc)
	}
	if reps != nil {
		for _, srv := range reps.Servers {
			srv.SetClusterMap(m.Epoch, enc)
		}
	}
}

// fastRetry keeps failover tests quick: one attempt per endpoint, tiny
// backoff.
var fastRetry = wire.RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}

func dialFleet(t *testing.T, f *testFleet) *cluster.Client {
	t.Helper()
	c, err := cluster.Dial("shard0", f.dialer())
	if err != nil {
		t.Fatalf("cluster.Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetRetryPolicy(fastRetry)
	return c
}

// TestRoutedMatchesSingleServer: the routed client over a 3-shard fleet
// must be observationally identical to a wire client over one unsharded
// server holding the same corpus — list, query, batched miniatures and the
// descriptor/read-piece path.
func TestRoutedMatchesSingleServer(t *testing.T) {
	ctx := context.Background()
	single, err := demo.Build(1<<15, 40)
	if err != nil {
		t.Fatalf("demo.Build: %v", err)
	}
	ref := wire.NewClient(&wire.LocalTransport{H: &wire.Handler{Srv: single.Server}})
	defer ref.Close()

	f, _, _ := buildFleet(t, 3, false)
	c := dialFleet(t, f)

	wantIDs, _, err := ref.ListCtx(ctx)
	if err != nil {
		t.Fatalf("ref List: %v", err)
	}
	gotIDs, _, err := c.ListCtx(ctx)
	if err != nil {
		t.Fatalf("routed List: %v", err)
	}
	if !reflect.DeepEqual(wantIDs, gotIDs) {
		t.Fatalf("routed List diverges from single server:\nwant %v\ngot  %v", wantIDs, gotIDs)
	}

	for _, term := range []string{"hospital", "map", "voice"} {
		want, _, err := ref.QueryCtx(ctx, term)
		if err != nil {
			t.Fatalf("ref Query(%q): %v", term, err)
		}
		got, _, err := c.QueryCtx(ctx, term)
		if err != nil {
			t.Fatalf("routed Query(%q): %v", term, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Query(%q) diverges:\nwant %v\ngot  %v", term, want, got)
		}
	}

	// Batched miniatures across every object, plus a missing id in the
	// middle: per-entry OK flags and modes must merge back in request
	// order.
	ids := append(append([]object.ID{}, wantIDs[:6]...), object.ID(999_999))
	ids = append(ids, wantIDs[6:12]...)
	want, _, err := ref.MiniaturesCtx(ctx, ids)
	if err != nil {
		t.Fatalf("ref Miniatures: %v", err)
	}
	got, _, err := c.MiniaturesCtx(ctx, ids)
	if err != nil {
		t.Fatalf("routed Miniatures: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("miniature count %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].OK != got[i].OK || want[i].Mode != got[i].Mode {
			t.Fatalf("miniature %d diverges: want {id %d ok %v mode %v}, got {id %d ok %v mode %v}",
				i, want[i].ID, want[i].OK, want[i].Mode, got[i].ID, got[i].OK, got[i].Mode)
		}
	}

	// Descriptor + piece read routed by owning shard: the first part's
	// bytes must round-trip.
	for _, id := range wantIDs[:8] {
		d, _, err := c.DescriptorCtx(ctx, id)
		if err != nil {
			t.Fatalf("routed Descriptor(%d): %v", id, err)
		}
		if len(d.Parts) == 0 {
			continue
		}
		p := d.Parts[0]
		data, _, err := c.ReadPieceCtx(ctx, id, p.Offset, p.Length)
		if err != nil {
			t.Fatalf("routed ReadPiece(%d): %v", id, err)
		}
		if uint64(len(data)) != p.Length {
			t.Fatalf("ReadPiece(%d) returned %d bytes, want %d", id, len(data), p.Length)
		}
	}
}

// TestFailoverToReplica: killing a primary mid-session must redirect that
// shard's reads to its WORM replica — the browse session completes, and
// the client records the failovers.
func TestFailoverToReplica(t *testing.T) {
	ctx := context.Background()
	f, sh, _ := buildFleet(t, 2, true)
	c := dialFleet(t, f)

	ids, _, err := c.ListCtx(ctx)
	if err != nil {
		t.Fatalf("List: %v", err)
	}

	// A browse session is underway; shard 0's primary dies.
	f.kill("shard0")

	res, _, err := c.MiniaturesCtx(ctx, ids)
	if err != nil {
		t.Fatalf("Miniatures after primary death: %v", err)
	}
	for i, r := range res {
		if !r.OK {
			t.Fatalf("miniature %d (id %d) missing after failover", i, r.ID)
		}
	}
	// Piece reads on shard-0 objects must come off the replica too:
	// the replica archive is bit-identical, so primary offsets are valid.
	var shard0 object.ID
	for _, id := range ids {
		if sh.Ring.Owner(id) == 0 {
			shard0 = id
			break
		}
	}
	d, _, err := c.DescriptorCtx(ctx, shard0)
	if err != nil {
		t.Fatalf("Descriptor(%d) after failover: %v", shard0, err)
	}
	if len(d.Parts) > 0 {
		if _, _, err := c.ReadPieceCtx(ctx, shard0, d.Parts[0].Offset, d.Parts[0].Length); err != nil {
			t.Fatalf("ReadPiece(%d) after failover: %v", shard0, err)
		}
	}
	if c.Failovers() == 0 {
		t.Fatal("no failovers recorded despite a dead primary")
	}
}

// TestDeadShardWithoutReplica: when a primary with no replica dies, calls
// against that shard must fail with a shard-unavailable error — and calls
// against the surviving shards must keep working.
func TestDeadShardWithoutReplica(t *testing.T) {
	ctx := context.Background()
	f, sh, _ := buildFleet(t, 2, false)
	c := dialFleet(t, f)

	f.kill("shard1")
	okID, deadID := object.ID(0), object.ID(0)
	ids := sh.Servers[0].IDs()
	if len(ids) > 0 {
		okID = ids[0]
	}
	if ids := sh.Servers[1].IDs(); len(ids) > 0 {
		deadID = ids[0]
	}
	if _, _, err := c.DescriptorCtx(ctx, okID); err != nil {
		t.Fatalf("healthy shard failed: %v", err)
	}
	if _, _, err := c.DescriptorCtx(ctx, deadID); err == nil {
		t.Fatal("dead unreplicated shard served a read")
	}
}

// TestStaleMapReroute: a client routing with an old map epoch must treat a
// miss as a possible misroute — refetch the map, see the epoch moved, and
// re-route transparently instead of failing.
func TestStaleMapReroute(t *testing.T) {
	ctx := context.Background()
	// The corpus is partitioned for 3 shards; the client starts with a
	// 2-shard epoch-1 map, so ids owned by shard 2 are misrouted.
	sh, err := demo.BuildSharded(1<<15, 40, 3, cluster.DefaultVnodes)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	f := &testFleet{}
	stale := &cluster.Map{Epoch: 1, Vnodes: cluster.DefaultVnodes}
	fresh := &cluster.Map{Epoch: 2, Vnodes: cluster.DefaultVnodes}
	for i, srv := range sh.Servers {
		name := fmt.Sprintf("shard%d", i)
		f.add(name, srv)
		if i < 2 {
			stale.Shards = append(stale.Shards, cluster.Shard{ID: i, Primary: name})
		}
		fresh.Shards = append(fresh.Shards, cluster.Shard{ID: i, Primary: name})
	}
	installMap(f, sh, nil, stale)
	c := dialFleet(t, f)
	if c.Map().Epoch != 1 {
		t.Fatalf("client bootstrapped epoch %d, want 1", c.Map().Epoch)
	}
	// The fleet re-shards: every server now serves the epoch-2 map.
	installMap(f, sh, nil, fresh)

	// An object the 3-shard ring puts on shard 2: the stale 2-shard ring
	// routes it elsewhere, the shard misses, and the client must recover.
	var moved object.ID
	staleRing := stale.Ring()
	for _, id := range sh.Servers[2].IDs() {
		if o := staleRing.Owner(id); o == 0 || o == 1 {
			moved = id
			break
		}
	}
	if moved == 0 {
		t.Fatal("no object distinguishes the stale ring from the fresh one")
	}
	if _, _, err := c.DescriptorCtx(ctx, moved); err != nil {
		t.Fatalf("Descriptor(%d) under stale map: %v", moved, err)
	}
	if c.Map().Epoch != 2 {
		t.Fatalf("client still on epoch %d after reroute", c.Map().Epoch)
	}
	if c.Reroutes() == 0 {
		t.Fatal("no reroute recorded")
	}
	// Batched path: misses on moved ids re-route too.
	res, _, err := c.MiniaturesCtx(ctx, sh.Servers[2].IDs())
	if err != nil {
		t.Fatalf("Miniatures of shard-2 ids: %v", err)
	}
	for _, r := range res {
		if !r.OK {
			t.Fatalf("miniature %d missing after map refresh", r.ID)
		}
	}
}

// TestUnchangedEpochRefetch: refetching against an unchanged fleet must
// keep the map and not spin — the CLUSTERMAP op answers "unchanged"
// without resending the payload.
func TestUnchangedEpochRefetch(t *testing.T) {
	f, _, m := buildFleet(t, 2, false)
	c := dialFleet(t, f)
	for i := 0; i < 3; i++ {
		if err := c.RefetchMap(context.Background()); err != nil {
			t.Fatalf("RefetchMap: %v", err)
		}
	}
	if got := c.Map().Epoch; got != m.Epoch {
		t.Fatalf("epoch drifted to %d", got)
	}
	if c.Refetches() != 3 {
		t.Fatalf("refetches = %d, want 3", c.Refetches())
	}
}

// TestConcurrentMapRefreshDuringBatches drives batched scatter/gather
// calls from several goroutines while the fleet's map epoch keeps
// advancing and the client keeps refetching — the -race gate for the
// routing state. No call may fail: an epoch bump with unchanged shards is
// routing-neutral.
func TestConcurrentMapRefreshDuringBatches(t *testing.T) {
	ctx := context.Background()
	f, sh, m := buildFleet(t, 2, false)
	c := dialFleet(t, f)
	ids, _, err := c.ListCtx(ctx)
	if err != nil {
		t.Fatalf("List: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := ids[(g+i)%len(ids):]
				if len(batch) > 8 {
					batch = batch[:8]
				}
				if _, _, err := c.MiniaturesCtx(ctx, batch); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		epoch := m.Epoch
		for i := 0; i < 50; i++ {
			epoch++
			bumped := *m
			bumped.Epoch = epoch
			installMap(f, sh, nil, &bumped)
			if err := c.RefetchMap(ctx); err != nil {
				errs <- err
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timer := time.AfterFunc(200*time.Millisecond, func() { close(stop) })
	defer timer.Stop()
	<-done
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent refresh: %v", err)
		}
	}
}

// TestRoutedBatchAllocs extends the zero-allocation guard to the routed
// path: a warm single-shard batch through the routed client must stay
// within a small constant allocation budget (the split/merge bookkeeping),
// independent of batch size.
func TestRoutedBatchAllocs(t *testing.T) {
	ctx := context.Background()
	f, sh, _ := buildFleet(t, 2, false)
	c := dialFleet(t, f)
	// All ids owned by one shard: the fast path, no goroutine fan-out.
	ids := sh.Servers[0].IDs()
	if len(ids) > 8 {
		ids = ids[:8]
	}
	if _, _, err := c.MiniaturesCtx(ctx, ids); err != nil { // warm caches
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := c.MiniaturesCtx(ctx, ids); err != nil {
			t.Fatalf("Miniatures: %v", err)
		}
	})
	// The routed layer adds the per-shard grouping and the merged result
	// slice on top of the wire client's own work; 60 objects per 8-id
	// batch is the measured envelope with headroom, and a regression that
	// makes the router allocate per miniature would blow far past it.
	if avg > 60 {
		t.Fatalf("routed warm batch allocates %.1f objects/run, budget 60", avg)
	}
}
