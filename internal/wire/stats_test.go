package wire

import (
	"context"
	"testing"

	"minos/internal/server"
)

// TestStatsTaggedRoundTrip: every counter survives the tagged encoding,
// including the ones deliberately emitted out of historical order.
func TestStatsTaggedRoundTrip(t *testing.T) {
	want := server.Stats{
		PieceReads: 1, BytesOut: 2, CacheHits: 3, CacheMiss: 4,
		DeviceWaits: 5, DeviceWaitNanos: 6, ReadAheadBlocks: 7, Shed: 8,
		EncodedHits: 9, EncodedMiss: 10, PoolAllocs: 11, PoolRecycled: 12,
	}
	payload := encodeStatsTagged(want)
	if payload[0] != statsTagged {
		t.Fatalf("marker = %#x", payload[0])
	}
	got, err := decodeStatsTagged(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

// TestStatsTaggedSkipsUnknownTags: a client must keep decoding the fields
// it knows when a newer server appends counters with tags it does not.
func TestStatsTaggedSkipsUnknownTags(t *testing.T) {
	payload := encodeStatsTagged(server.Stats{PieceReads: 9, Shed: 2})
	payload = append(payload, 200) // unknown future tag...
	payload = appendU64(payload, 12345)
	got, err := decodeStatsTagged(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.PieceReads != 9 || got.Shed != 2 {
		t.Fatalf("decode with unknown tag = %+v", got)
	}
}

// TestStatsRejectsUntagged: a stats payload without the tagged marker (the
// retired positional layout, or nothing at all) is an error, not a guess.
func TestStatsRejectsUntagged(t *testing.T) {
	var positional []byte
	for _, v := range []uint64{1, 2, 3, 4, 5, 6, 7} {
		positional = appendU64(positional, v)
	}
	for _, payload := range [][]byte{positional, nil} {
		if st, err := decodeStatsTagged(payload); err == nil {
			t.Fatalf("untagged payload (%d bytes) decoded as %+v", len(payload), st)
		}
		c := NewClient(&staticTransport{resp: okResp(0, payload)})
		if _, err := c.StatsCtx(context.Background()); err == nil {
			t.Fatalf("StatsCtx accepted an untagged payload (%d bytes)", len(payload))
		}
	}
}

// TestStatsOverWire: the wire Stats call decodes the tagged response the
// current server emits.
func TestStatsOverWire(t *testing.T) {
	c, _ := localClient(t)
	if _, _, err := c.ReadPieceCtx(context.Background(), 0, 64); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PieceReads == 0 {
		t.Fatalf("stats over wire = %+v", st)
	}
}
