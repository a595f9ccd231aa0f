package workstation

import (
	"context"
	"strings"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/core"
	"minos/internal/disk"
	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/text"
	"minos/internal/vclock"
	"minos/internal/voice"
	"minos/internal/wire"
)

// streamFixture is the workstation fixture plus a long spoken object and a
// handle on the session's virtual clock, so tests can interleave chunk
// arrival (driven by the advance callback) with device playback.
func streamFixture(t testing.TB) (*Session, *server.Server, *vclock.Clock, object.ID) {
	t.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(8192))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(archiver.New(dev))
	const id = object.ID(9)
	seg, err := text.Parse("Spoken chapter for streamed playback. " +
		strings.Repeat("voice archive rhythm presentation workstation. ", 80) + "\n")
	if err != nil {
		t.Fatal(err)
	}
	syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), 8000)
	o, err := object.NewBuilder(id, "spoken", object.Audio).VoicePart(syn.Part).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(o); err != nil {
		t.Fatal(err)
	}

	im := img.New("map", 100, 100)
	im.Base = img.NewBitmap(100, 100)
	im.Base.Fill(img.Rect{X: 10, Y: 10, W: 50, H: 50}, true)
	o3, err := object.NewBuilder(3, "map", object.Audio).
		Text(".title Map\nthe city map object.\n").Image(im).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(o3); err != nil {
		t.Fatal(err)
	}

	clock := vclock.New()
	lt := wire.EthernetLink(&wire.Handler{Srv: srv})
	sess := New(wire.NewClient(lt), core.Config{Screen: screen.New(240, 140), Clock: clock})
	return sess, srv, clock, id
}

// TestPlayVoiceStreamPlaysWhileFetching: playback starts after the first
// chunk — long before the part has fully arrived — and on the 10 Mbit/s
// link delivery stays so far ahead of the 8 kHz device that the play-out
// never underruns. The emitted samples are the whole part.
func TestPlayVoiceStreamPlaysWhileFetching(t *testing.T) {
	s, srv, clock, id := streamFixture(t)
	pcm, _, err := srv.VoicePCMInfoAs(0, id)
	if err != nil {
		t.Fatal(err)
	}

	pb, err := s.PlayVoiceStreamCtx(context.Background(), id,
		func(at time.Duration) { clock.AdvanceTo(at) })
	if err != nil {
		t.Fatalf("PlayVoiceStreamCtx: %v", err)
	}
	if !pb.Streamed {
		t.Fatal("stream-capable link fell back to batch")
	}
	if pb.Rate != pcm.Rate || pb.TotalBytes != pcm.Bytes {
		t.Fatalf("playback meta %+v, want rate %d total %d", pb, pcm.Rate, pcm.Bytes)
	}
	if pb.Chunks < 8 {
		t.Fatalf("only %d chunks; part too short to prove play-while-fetch", pb.Chunks)
	}
	// The whole point: audio starts a chunk into the transfer, not after it.
	if pb.FirstAudio <= 0 || pb.Done <= 0 || pb.FirstAudio*5 > pb.Done {
		t.Fatalf("first audio at %v vs transfer done at %v: no streaming head start", pb.FirstAudio, pb.Done)
	}
	if pb.Underruns != 0 {
		t.Fatalf("%d underruns on a link 10x faster than the device", pb.Underruns)
	}
	player := s.Manager().MsgPlayer()
	if !player.Playing() {
		t.Fatal("player not emitting after the stream completed delivery")
	}
	// Let the device play the part out in virtual time.
	clock.Run(time.Hour)
	if player.Playing() {
		t.Fatal("playback never completed")
	}
	if got := len(player.Part().Samples); uint64(2*got) != pcm.Bytes {
		t.Fatalf("device holds %d samples, want %d", got, pcm.Bytes/2)
	}
	// The play log covers the part contiguously from the start.
	var covered int
	for _, p := range player.PlayLog {
		if p.From != covered {
			t.Fatalf("play log gap: segment starts at %d, frontier was %d (%+v)", p.From, covered, player.PlayLog)
		}
		covered = p.To
	}
	if uint64(2*covered) != pcm.Bytes {
		t.Fatalf("device emitted %d samples, want %d", covered, pcm.Bytes/2)
	}
}

// batchOnly hides the transport's stream support: the session must detect
// the missing capability and fall back to the single-frame preview path.
type batchOnly struct{ inner wire.Transport }

func (b *batchOnly) RoundTripCtx(ctx context.Context, req []byte) ([]byte, error) {
	return b.inner.RoundTripCtx(ctx, req)
}
func (b *batchOnly) Close() error { return b.inner.Close() }

// TestPlayVoiceStreamFallsBackToBatch: no StreamOpener on the transport →
// the old preview path (Load + Play), Streamed=false.
func TestPlayVoiceStreamFallsBackToBatch(t *testing.T) {
	_, srv, _, id := streamFixture(t)
	lt := wire.EthernetLink(&wire.Handler{Srv: srv})
	sess := New(wire.NewClient(&batchOnly{inner: lt}), core.Config{Screen: screen.New(240, 140), Clock: vclock.New()})
	pb, err := sess.PlayVoiceStreamCtx(context.Background(), id, nil)
	if err != nil {
		t.Fatalf("fallback playback: %v", err)
	}
	if pb.Streamed {
		t.Fatal("batch-only transport reported a stream")
	}
	if pb.TotalBytes == 0 {
		t.Fatal("fallback played nothing")
	}
	if !sess.Manager().MsgPlayer().Playing() {
		t.Fatal("fallback did not start playback")
	}
}

// TestMiniatureProgressivePaint: the browse cell repaints as passes land —
// usable after the coarse pass at a fraction of the full delivery time —
// and the final bitmap is identical to the one served whole.
func TestMiniatureProgressivePaint(t *testing.T) {
	s, srv, _, _ := streamFixture(t)
	want := srv.Miniature(3)
	if want == nil {
		t.Fatal("fixture object 3 has no miniature")
	}

	type paint struct {
		usable bool
		at     time.Duration
		pop    int
	}
	var paints []paint
	bm, pp, err := s.MiniatureProgressiveCtx(context.Background(), 3,
		func(b *img.Bitmap, usable bool, at time.Duration) {
			paints = append(paints, paint{usable: usable, at: at, pop: b.PopCount()})
		})
	if err != nil {
		t.Fatalf("MiniatureProgressiveCtx: %v", err)
	}
	if !pp.Streamed {
		t.Fatal("stream-capable link fell back to single-frame")
	}
	if pp.Passes != img.ProgressivePasses || len(paints) != pp.Passes {
		t.Fatalf("passes = %d, paints = %d, want %d", pp.Passes, len(paints), img.ProgressivePasses)
	}
	if !paints[0].usable || paints[0].pop == 0 {
		t.Fatal("first (coarse) pass did not paint a usable image")
	}
	// A single 64px miniature is a few hundred bytes, so the fixed link
	// round-trip dominates one cell's wall time; the per-cell claim is
	// byte-order — usable strictly before complete, coarse pass first. The
	// screen-level 2x time win is the E-STREAM experiment's assertion,
	// where coarse passes of the whole result set amortize the latency.
	if pp.Usable <= 0 || pp.Complete <= pp.Usable {
		t.Fatalf("usable at %v, complete at %v: not progressive", pp.Usable, pp.Complete)
	}
	if bm.Hash() != want.Hash() {
		t.Fatal("progressive reassembly diverges from the whole miniature")
	}
}

// TestMiniatureProgressiveFallback: a batch-only transport paints once,
// with the complete bitmap.
func TestMiniatureProgressiveFallback(t *testing.T) {
	_, srv, _, _ := streamFixture(t)
	want := srv.Miniature(3)
	lt := wire.EthernetLink(&wire.Handler{Srv: srv})
	sess := New(wire.NewClient(&batchOnly{inner: lt}), core.Config{Screen: screen.New(240, 140), Clock: vclock.New()})

	calls := 0
	bm, pp, err := sess.MiniatureProgressiveCtx(context.Background(), 3,
		func(b *img.Bitmap, usable bool, at time.Duration) {
			calls++
			if !usable {
				t.Fatal("fallback paint not usable")
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if pp.Streamed || pp.Passes != 1 || calls != 1 {
		t.Fatalf("fallback paint: %+v, %d calls", pp, calls)
	}
	if bm.Hash() != want.Hash() {
		t.Fatal("fallback bitmap diverges")
	}
}
