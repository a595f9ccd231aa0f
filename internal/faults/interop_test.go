package faults_test

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"minos/internal/faults"
	"minos/internal/object"
	"minos/internal/wire"
)

// startV2Server serves the current protocol (HELLO upgrade to mux) on loopback.
func startV2Server(t *testing.T) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &wire.Handler{Srv: testServer(t, 4)}
	go wire.Serve(l, h)
	return l.Addr().String(), func() { l.Close() }
}

// waitGoroutines polls until the goroutine count settles back to at most
// base+slack, failing with a stack dump if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d+%d\n%s", runtime.NumGoroutine(), base, slack, buf[:n])
}

// TestInteropFaultMatrix runs the mux protocol under injected faults.
// Every cell drives a browse-shaped call mix through a retrying,
// reconnecting client and must end with correct results, zero pending-call
// table entries and zero leaked goroutines.
func TestInteropFaultMatrix(t *testing.T) {
	faultCases := []struct {
		name string
		cfg  faults.Config
	}{
		{"drop", faults.Config{Seed: 11, Drop: 0.12, DropFor: 100 * time.Microsecond}},
		{"truncate", faults.Config{Seed: 12, Truncate: 0.12}},
		{"reset", faults.Config{Seed: 13, Reset: 0.08}},
	}

	for _, fc := range faultCases {
		t.Run("v2-server/v2-client/"+fc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			addr, stop := startV2Server(t)
			inj := faults.New(fc.cfg)
			redial := inj.WrapRedial(func() (wire.Transport, error) { return wire.DialMux(addr) })
			first, err := redial()
			if err != nil {
				t.Fatal(err)
			}
			c := wire.NewClient(first)
			c.SetRetryPolicy(wire.RetryPolicy{MaxAttempts: 8, BaseDelay: 500 * time.Microsecond, MaxDelay: 10 * time.Millisecond})
			c.EnableReconnect(redial)

			ctx := context.Background()
			for i := 0; i < 40; i++ {
				ids, _, err := c.QueryCtx(ctx, "survey")
				if err != nil {
					t.Fatalf("call %d query: %v", i, err)
				}
				if len(ids) != 4 {
					t.Fatalf("call %d: %d hits, want 4", i, len(ids))
				}
				id := object.ID(i%4 + 1)
				res, _, err := c.MiniaturesCtx(ctx, []object.ID{id})
				if err != nil {
					t.Fatalf("call %d miniature: %v", i, err)
				}
				if !res[0].OK || res[0].Mini.PopCount() == 0 {
					t.Fatalf("call %d: blank miniature", i)
				}
				mode, err := c.ModeCtx(ctx, id)
				if err != nil {
					t.Fatalf("call %d mode: %v", i, err)
				}
				if mode != object.Visual {
					t.Fatalf("call %d: mode = %v", i, mode)
				}
			}
			if fc.cfg.Reset > 0 && c.Reconnects() == 0 {
				t.Fatal("reset cell never reconnected")
			}
			// No pending-call leaks on the (current) transport.
			if ft, ok := c.Transport().(*faults.Transport); ok {
				if m, ok := ft.Unwrap().(*wire.MuxTransport); ok {
					if n := m.PendingCalls(); n != 0 {
						t.Fatalf("%d pending calls leaked", n)
					}
				}
			}
			c.Close()
			stop()
			waitGoroutines(t, base)
		})
	}
}
