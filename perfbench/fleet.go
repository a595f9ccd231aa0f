package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"minos/internal/cluster"
	"minos/internal/gateway"
	"minos/internal/loadgen"
	"minos/internal/server"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// Fleet shape shared by every workload: the standard load corpus
// (demo figures, the big map, 60 fillers, 12 spoken objects) on two shards.
const (
	fleetShards  = 2
	fleetFillers = 60
	fleetSpoken  = 12
	fleetBlocks  = 1 << 16 // optical capacity per shard, 2 KiB blocks

	// Shard serving knobs: the shipped minos-server defaults.
	shardSeek      = 1
	shardReadAhead = 8
	shardInflight  = 0

	// Gateway knobs: the shipped minos-gateway defaults.
	gatewayPool     = 4
	gatewaySlots    = 64
	gatewayPrefetch = 8
)

// system is one running system under test: the shard servers on loopback
// TCP, the clients the load generator uses, and for web the gateway.
type system struct {
	fleet *loadgen.Fleet
	addrs []string
	lns   []net.Listener
	serve sync.WaitGroup
	tap   *wireTap // traced phase only
	tr    *tracer  // traced phase only

	// cc is the load generator's routed client (present, search): one
	// multiplexed connection per shard.
	cc *cluster.Client

	// web only: the gateway over its own backend pool, and the HTTP
	// client with at most nproc keep-alive connections.
	pool    []*cluster.Client
	hub     *gateway.Hub
	hsrv    *http.Server
	hln     net.Listener
	hdone   chan error
	httpc   *http.Client
	baseURL string
	sids    []uint64
	// tbs are the traced backends by gateway session id (web, traced).
	tbs map[uint64]*tracedBackend
}

func dialMux(ep string) (wire.Transport, error) { return wire.DialMux(ep) }

// startFleet builds the corpus, serves each shard on a loopback listener
// and installs the cluster map.
func startFleet(tr *tracer) (*system, error) {
	f, err := loadgen.BuildFleet(fleetBlocks, fleetFillers, fleetSpoken, fleetShards, cluster.DefaultVnodes, false)
	if err != nil {
		return nil, fmt.Errorf("build fleet: %w", err)
	}
	sys := &system{fleet: f, tr: tr}
	if tr != nil {
		sys.tap = &wireTap{tr: tr}
	}
	m := cluster.Map{Epoch: 1, Vnodes: cluster.DefaultVnodes}
	for i := range f.Shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("listen shard %d: %w", i, err)
		}
		sys.lns = append(sys.lns, l)
		sys.addrs = append(sys.addrs, l.Addr().String())
		m.Shards = append(m.Shards, cluster.Shard{ID: i, Primary: l.Addr().String()})
	}
	if err := m.Validate(); err != nil {
		sys.close()
		return nil, err
	}
	payload := m.Encode()
	for i, sh := range f.Shards {
		srv := sh.Primary
		srv.SetSeekConcurrency(shardSeek)
		srv.SetReadAhead(shardReadAhead)
		srv.SetMaxInFlight(shardInflight)
		srv.SetClusterMap(m.Epoch, payload)
		var l net.Listener = sys.lns[i]
		if sys.tap != nil {
			l = &tapListener{Listener: l, tap: sys.tap}
		}
		sys.serve.Add(1)
		go func() {
			defer sys.serve.Done()
			wire.ServeWith(l, &wire.Handler{Srv: srv}, wire.ServeOpts{})
		}()
	}
	return sys, nil
}

func (sys *system) servers() []*server.Server {
	out := make([]*server.Server, len(sys.fleet.Shards))
	for i, sh := range sys.fleet.Shards {
		out[i] = sh.Primary
	}
	return out
}

// dialClient opens the load generator's routed client.
func (sys *system) dialClient() error {
	cc, err := cluster.Dial(sys.addrs[0], dialMux)
	if err != nil {
		return fmt.Errorf("dial fleet: %w", err)
	}
	sys.cc = cc
	return nil
}

// startGateway puts the gateway in front of the fleet with the shipped
// defaults and opens sessions web sessions over HTTP.
func (sys *system) startGateway(sessions, conns int, check func([]wire.MiniatureResult)) error {
	for i := 0; i < gatewayPool; i++ {
		cc, err := cluster.Dial(sys.addrs[0], dialMux)
		if err != nil {
			return fmt.Errorf("dial gateway backend: %w", err)
		}
		sys.pool = append(sys.pool, cc)
	}
	// Untraced, the hub gets the pool itself. Traced, it gets one
	// wrapper per session over the same pool; the hub assigns session sid
	// to Backends[(sid-1) % len], so wrapper sid-1 wraps pool client
	// (sid-1) % pool and every session rides the connection it would
	// untraced.
	var backends []workstation.Backend
	if sys.tr == nil {
		for _, cc := range sys.pool {
			backends = append(backends, cc)
		}
	} else {
		sys.tbs = map[uint64]*tracedBackend{}
		for i := 0; i < sessions; i++ {
			tb := newTracedBackend(sys.pool[i%gatewayPool], sys.tr, check)
			sys.tbs[uint64(i+1)] = tb
			backends = append(backends, tb)
		}
	}
	hub, err := gateway.New(gateway.Config{
		Backends:  backends,
		StepSlots: gatewaySlots,
		Prefetch:  &workstation.PrefetchConfig{Depth: gatewayPrefetch},
	})
	if err != nil {
		return err
	}
	sys.hub = hub
	var h http.Handler = gateway.NewServer(hub)
	if sys.tr != nil {
		h = &tracedHandler{h: h, tr: sys.tr, backends: sys.tbs}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen gateway: %w", err)
	}
	sys.hln = l
	sys.hsrv = &http.Server{Handler: h}
	sys.hdone = make(chan error, 1)
	go func() { sys.hdone <- sys.hsrv.Serve(l) }()
	sys.baseURL = "http://" + l.Addr().String()
	sys.httpc = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
	for i := 0; i < sessions; i++ {
		var out struct {
			Session uint64 `json:"session"`
		}
		if err := sys.postJSON(context.Background(), "/session", &out); err != nil {
			return fmt.Errorf("open gateway session: %w", err)
		}
		sys.sids = append(sys.sids, out.Session)
	}
	return nil
}

// close stops everything the system started and waits for it.
func (sys *system) close() {
	if sys.hsrv != nil {
		sys.hsrv.Close()
		<-sys.hdone
	}
	if sys.httpc != nil {
		sys.httpc.CloseIdleConnections()
	}
	if sys.hub != nil {
		sys.hub.Close()
	}
	for _, cc := range sys.pool {
		cc.Close()
	}
	if sys.cc != nil {
		sys.cc.Close()
	}
	for _, l := range sys.lns {
		l.Close()
	}
	sys.serve.Wait()
	for _, srv := range sys.servers() {
		srv.ContentIndex().WaitMerges()
	}
}
