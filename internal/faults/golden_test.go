package faults

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"minos/internal/wire"
)

// goldenInner is a scripted wire.Transport: it answers every exchange with
// the same well-formed frame so the only variation in a run is what the
// injector does to it.
type goldenInner struct{ closed bool }

func (g *goldenInner) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	if g.closed {
		return nil, wire.ErrTransportClosed
	}
	// A plausible response frame: 13-byte header + payload, large enough
	// for both the truncate and corrupt shapes to act on.
	resp := make([]byte, 32)
	for i := range resp {
		resp[i] = byte(i)
	}
	return resp, nil
}

func (g *goldenInner) Close() error { g.closed = true; return nil }

// goldenTrace drives calls sequential exchanges through one injector,
// redialling through WrapRedial after every reset, and returns one line
// per call naming the injected fault. Classification diffs Stats()
// around the call, so it is independent of error text and timing.
func goldenTrace(seed int64, calls int) string {
	inj := New(Config{
		Seed:     seed,
		Drop:     0.15,
		Reset:    0.10,
		Truncate: 0.15,
		Corrupt:  0.15,
		Stall:    0.15,
		StallFor: 1, // 1ns: keep the schedule, skip the waiting
		DropFor:  1,
	})
	redial := inj.WrapRedial(func() (wire.Transport, error) {
		return &goldenInner{}, nil
	})
	t, err := redial()
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	var b strings.Builder
	dials := 1
	for i := 0; i < calls; i++ {
		before := inj.Stats()
		_, callErr := t.RoundTripCtx(ctx, []byte("req"))
		after := inj.Stats()
		var k string
		switch {
		case after.Drops > before.Drops:
			k = "drop"
		case after.Resets > before.Resets:
			k = "reset"
		case after.Truncates > before.Truncates:
			k = "truncate"
		case after.Corrupts > before.Corrupts:
			k = "corrupt"
		case after.Stalls > before.Stalls:
			k = "stall"
		default:
			k = "none"
		}
		fmt.Fprintf(&b, "%02d %s\n", i, k)
		if k == "reset" {
			// The connection is dead; the client's reconnect path dials a
			// fresh transport through the same injector, which must keep
			// drawing from the same seeded schedule.
			if callErr == nil {
				panic("reset fault returned no error")
			}
			t, err = redial()
			if err != nil {
				panic(err)
			}
			dials++
		}
	}
	fmt.Fprintf(&b, "dials %d\n", dials)
	return b.String()
}

// goldenSeed42 is the recorded injection schedule for seed 42 over 48
// exchanges with the probabilities above. If this test fails, the seeded
// fault schedule has changed — that breaks replay-from-seed debugging and
// the E-FAULT experiment's comparability, so treat it as a regression,
// not a golden to refresh casually.
const goldenSeed42 = `00 truncate
01 drop
02 stall
03 reset
04 drop
05 truncate
06 none
07 truncate
08 truncate
09 stall
10 none
11 reset
12 truncate
13 drop
14 stall
15 corrupt
16 none
17 none
18 none
19 none
20 drop
21 truncate
22 truncate
23 reset
24 stall
25 drop
26 none
27 drop
28 corrupt
29 reset
30 truncate
31 none
32 none
33 none
34 drop
35 none
36 none
37 none
38 reset
39 stall
40 none
41 none
42 truncate
43 drop
44 none
45 stall
46 none
47 corrupt
dials 6
`

func TestGoldenTraceAcrossRedial(t *testing.T) {
	got := goldenTrace(42, 48)
	if !strings.Contains(got, "reset") {
		t.Fatal("schedule contains no reset: the trace never crosses a WrapRedial reconnect")
	}
	if got != goldenSeed42 {
		t.Fatalf("seed-42 schedule diverged from the recorded golden:\ngot:\n%s\nwant:\n%s", got, goldenSeed42)
	}
}

// TestGoldenTraceReplays: the same seed replays bit-identically within a
// process, and a different seed yields a different schedule.
func TestGoldenTraceReplays(t *testing.T) {
	a := goldenTrace(7, 64)
	b := goldenTrace(7, 64)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	if c := goldenTrace(8, 64); c == a {
		t.Fatal("different seeds produced identical schedules")
	}
}
