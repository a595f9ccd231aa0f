package wire

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/disk"
	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/server"
	"minos/internal/text"
	"minos/internal/voice"
)

func testServer(t testing.TB) *server.Server {
	t.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(4096))
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(archiver.New(dev))
	add := func(id object.ID, title, body string) {
		o, err := object.NewBuilder(id, title, object.Visual).Text(body).Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Publish(o); err != nil {
			t.Fatal(err)
		}
	}
	add(1, "lungs", ".title Lungs\nthe lung shadow is visible here.\n")
	add(2, "heart", ".title Heart\nthe heart rhythm is regular today.\n")

	im := img.New("map", 100, 100)
	im.Base = img.NewBitmap(100, 100)
	im.Base.Fill(img.Rect{X: 10, Y: 10, W: 50, H: 50}, true)
	o3, err := object.NewBuilder(3, "map", object.Audio).
		Text(".title Map\nthe city map object.\n").Image(im).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(o3); err != nil {
		t.Fatal(err)
	}
	return s
}

func localClient(t testing.TB) (*Client, *LocalTransport) {
	t.Helper()
	lt := EthernetLink(&Handler{Srv: testServer(t)})
	return NewClient(lt), lt
}

// miniature fetches one miniature as a batch of one.
func miniature(c *Client, id object.ID) (*img.Bitmap, error) {
	res, _, err := c.MiniaturesCtx(context.Background(), []object.ID{id})
	if err != nil {
		return nil, err
	}
	if !res[0].OK {
		return nil, fmt.Errorf("no miniature for object %d", id)
	}
	return res[0].Mini, nil
}

func TestQueryOverWire(t *testing.T) {
	c, _ := localClient(t)
	ids, _, err := c.QueryCtx(context.Background(), "lung")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("Query = %v", ids)
	}
	ids, _, err = c.QueryCtx(context.Background(), "the")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("Query(the) = %v", ids)
	}
}

func TestDescriptorAndPiecesOverWire(t *testing.T) {
	c, _ := localClient(t)
	d, dur, err := c.DescriptorCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != 1 || d.Title != "lungs" {
		t.Fatalf("descriptor = %+v", d)
	}
	if dur == 0 {
		t.Fatal("descriptor fetch reported zero device time on cold cache")
	}
	// Materialize the whole object through the wire.
	o, err := d.Materialize(c.Fetch(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Stream()) == 0 {
		t.Fatal("empty stream over wire")
	}
}

func TestMiniatureOverWire(t *testing.T) {
	c, _ := localClient(t)
	m, err := miniature(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.PopCount() == 0 {
		t.Fatal("blank miniature")
	}
	if _, err := miniature(c, 42); err == nil || !strings.Contains(err.Error(), "miniature") {
		t.Fatalf("missing miniature err = %v", err)
	}
}

func TestListAndMode(t *testing.T) {
	c, _ := localClient(t)
	ids, _, err := c.ListCtx(context.Background())
	if err != nil || len(ids) != 3 {
		t.Fatalf("List = %v, %v", ids, err)
	}
	m, err := c.ModeCtx(context.Background(), 3)
	if err != nil || m != object.Audio {
		t.Fatalf("Mode = %v, %v", m, err)
	}
	if _, err := c.ModeCtx(context.Background(), 42); err == nil {
		t.Fatal("mode of missing object")
	}
}

func TestLinkAccounting(t *testing.T) {
	c, lt := localClient(t)
	lt.ResetStats()
	if _, _, err := c.ReadPieceCtx(context.Background(), 0, 4096); err != nil {
		t.Fatal(err)
	}
	st := lt.Stats()
	if st.RoundTrips != 1 {
		t.Fatalf("round trips = %d", st.RoundTrips)
	}
	if st.BytesRecv < 4096 {
		t.Fatalf("bytes recv = %d", st.BytesRecv)
	}
	if st.LinkTime <= 2*lt.Latency {
		t.Fatalf("link time %v does not include transfer", st.LinkTime)
	}
	// A smaller read moves fewer bytes.
	lt.ResetStats()
	c.ReadPieceCtx(context.Background(), 0, 128)
	small := lt.Stats()
	if small.BytesRecv >= st.BytesRecv {
		t.Fatalf("small read moved %d vs %d", small.BytesRecv, st.BytesRecv)
	}
}

func TestMalformedRequests(t *testing.T) {
	h := &Handler{Srv: testServer(t)}
	for _, req := range [][]byte{nil, {99}, {OpDescriptor, 1, 2}, {OpQuery, 0, 0, 0}} {
		resp := h.Handle(req)
		if len(resp) == 0 || resp[0] != statusErr {
			t.Fatalf("malformed request %v accepted: %v", req, resp)
		}
	}
}

func TestMuxTransportOverTCP(t *testing.T) {
	srv := testServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, &Handler{Srv: srv})

	tp, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tp)
	defer c.Close()

	ids, _, err := c.QueryCtx(context.Background(), "lung")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("tcp Query = %v", ids)
	}
	d, _, err := c.DescriptorCtx(context.Background(), 2)
	if err != nil || d.Title != "heart" {
		t.Fatalf("tcp Descriptor = %+v, %v", d, err)
	}
	// Multiple sequential calls on the same connection.
	for i := 0; i < 5; i++ {
		if _, _, err := c.ListCtx(context.Background()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	msg := []byte("hello frames")
	errc := make(chan error, 1)
	go func() { errc <- WriteFrame(a, msg) }()
	got, err := ReadFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("frame = %q", got)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestEthernetCostModel(t *testing.T) {
	lt := EthernetLink(nil)
	t1 := lt.Latency + lt.byteCost(0)
	t2 := lt.Latency + lt.byteCost(1_250_000) // 1 second at 10 Mbit/s
	if t1 != lt.Latency {
		t.Fatalf("zero-byte cost = %v", t1)
	}
	if d := t2 - t1; d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Fatalf("1.25MB transfer = %v, want ~1s", d)
	}
}

func TestImageViewOverWire(t *testing.T) {
	c, lt := localClient(t)
	lt.ResetStats()
	view, _, err := c.ImageViewCtx(context.Background(), 3, "map", img.Rect{X: 10, Y: 10, W: 40, H: 30})
	if err != nil {
		t.Fatal(err)
	}
	if view.W != 40 || view.H != 30 {
		t.Fatalf("view dims %dx%d", view.W, view.H)
	}
	small := lt.Stats().BytesRecv
	lt.ResetStats()
	full, _, err := c.ImageViewCtx(context.Background(), 3, "map", img.Rect{X: 0, Y: 0, W: 100, H: 100})
	if err != nil {
		t.Fatal(err)
	}
	if full.W != 100 {
		t.Fatalf("full dims %dx%d", full.W, full.H)
	}
	big := lt.Stats().BytesRecv
	if small >= big {
		t.Fatalf("view bytes %d not below full image bytes %d", small, big)
	}
	if _, _, err := c.ImageViewCtx(context.Background(), 3, "ghost", img.Rect{}); err == nil {
		t.Fatal("view on missing image accepted")
	}
}

func TestVoicePreviewOverWire(t *testing.T) {
	srv := testServer(t)
	seg, _ := text.Parse("Audible preview words here.\n")
	syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), 2000)
	o, err := object.NewBuilder(9, "spoken", object.Audio).VoicePart(syn.Part).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(o); err != nil {
		t.Fatal(err)
	}
	c := NewClient(EthernetLink(&Handler{Srv: srv}))
	vp, _, err := c.VoicePreviewCtx(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if vp.Rate != 2000 || len(vp.Samples) == 0 {
		t.Fatalf("preview = %+v", vp)
	}
	if _, _, err := c.VoicePreviewCtx(context.Background(), 1); err == nil {
		t.Fatal("preview of visual object accepted")
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		hdr := []byte{0xff, 0xff, 0xff, 0xff} // 4 GiB claim
		a.Write(hdr)
	}()
	if _, err := ReadFrame(b); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
