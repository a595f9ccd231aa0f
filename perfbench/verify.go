package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"sort"

	"minos/internal/core"
	"minos/internal/descriptor"
	img "minos/internal/image"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/vclock"
	"minos/internal/wire"
	"minos/internal/workstation"
)

// Screen geometry of every presentation session: the gateway default.
const screenW, screenH = 240, 140

// pixRef is a reference image as the gateway's PNGs carry it: one byte
// per pixel, 1 = ink.
type pixRef struct {
	w, h int
	pix  []byte
}

func pixOf(bm *img.Bitmap) *pixRef {
	p := &pixRef{w: bm.W, h: bm.H, pix: make([]byte, bm.W*bm.H)}
	for y := 0; y < bm.H; y++ {
		for x := 0; x < bm.W; x++ {
			if bm.Get(x, y) {
				p.pix[y*bm.W+x] = 1
			}
		}
	}
	return p
}

// refs are the expected answers, built at set-up from the servers
// in-process (no wire, no cluster client, no gateway on the path).
type refs struct {
	ids    []object.ID
	spoken []object.ID
	modes  map[object.ID]object.Mode

	miniBytes map[object.ID][]byte // Server.MiniatureEncoded
	minis     map[object.ID]*pixRef
	views     map[object.ID]*pixRef // screen right after opening the object
	parts     map[object.ID]uint64  // digest of the archived object's parts
	pcmBytes  map[object.ID]uint64  // primary voice part, PCM bytes

	termResults map[string][]object.ID // web queries
	seed        maphash.Seed
}

// buildRefs derives every reference answer from the shard servers.
func buildRefs(sys *system) (*refs, error) {
	rf := &refs{
		modes:     map[object.ID]object.Mode{},
		miniBytes: map[object.ID][]byte{},
		minis:     map[object.ID]*pixRef{},
		views:     map[object.ID]*pixRef{},
		parts:     map[object.ID]uint64{},
		pcmBytes:  map[object.ID]uint64{},
		seed:      maphash.MakeSeed(),
	}
	mgr := core.New(core.Config{Screen: screen.New(screenW, screenH), Clock: vclock.New()})
	for _, srv := range sys.servers() {
		for _, id := range srv.IDs() {
			o, _, err := srv.Archiver().Load(id)
			if err != nil {
				return nil, fmt.Errorf("load %d: %w", id, err)
			}
			rf.ids = append(rf.ids, id)
			rf.modes[id] = o.Mode
			if rf.parts[id], err = rf.digest(o); err != nil {
				return nil, err
			}
			if o.Mode == object.Audio {
				rf.spoken = append(rf.spoken, id)
				if vp := o.PrimaryVoice(); vp != nil {
					rf.pcmBytes[id] = uint64(2 * len(vp.Samples))
				}
			}
			enc, _, ok := srv.MiniatureEncoded(id)
			if !ok {
				return nil, fmt.Errorf("object %d has no miniature", id)
			}
			rf.miniBytes[id] = enc
			rf.minis[id] = pixOf(srv.Miniature(id))
			if err := mgr.Open(o); err != nil {
				return nil, fmt.Errorf("open %d: %w", id, err)
			}
			frame := mgr.Screen().Render()
			rf.views[id] = pixOf(frame)
			frame.Release()
		}
	}
	sort.Slice(rf.ids, func(i, j int) bool { return rf.ids[i] < rf.ids[j] })
	sort.Slice(rf.spoken, func(i, j int) bool { return rf.spoken[i] < rf.spoken[j] })
	rf.termResults = map[string][]object.ID{}
	for _, t := range webTerms {
		rf.termResults[t] = naiveUnion(sys.servers(), index.Query{Terms: []string{t}})
	}
	return rf, nil
}

// naiveUnion is the reference for a routed query: the sorted union of
// every shard's brute-force Store.SearchNaive.
func naiveUnion(srvs []*server.Server, q index.Query) []object.ID {
	seen := map[object.ID]bool{}
	var out []object.ID
	for _, srv := range srvs {
		for _, id := range srv.ContentIndex().SearchNaive(q) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// digest hashes an object's parts in their wire encoding: text segments,
// voice parts and images, in order.
func (rf *refs) digest(o *object.Object) (uint64, error) {
	var h maphash.Hash
	h.SetSeed(rf.seed)
	put := func(kind descriptor.PartKind, v any) error {
		b, err := descriptor.EncodePart(kind, v)
		if err != nil {
			return err
		}
		h.Write([]byte{byte(kind)})
		h.Write(b)
		return nil
	}
	for _, s := range o.Text {
		if err := put(descriptor.PartText, s); err != nil {
			return 0, err
		}
	}
	for _, p := range o.Voice {
		if err := put(descriptor.PartVoice, p); err != nil {
			return 0, err
		}
	}
	for _, im := range o.Images {
		if err := put(descriptor.PartImage, im); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}

// checkObject compares an opened object with the archived one.
func (rf *refs) checkObject(id object.ID, o *object.Object) error {
	if o == nil || o.ID != id {
		return fmt.Errorf("open %d: presented object is not the one asked for", id)
	}
	d, err := rf.digest(o)
	if err != nil {
		return fmt.Errorf("open %d: %w", id, err)
	}
	if d != rf.parts[id] {
		return fmt.Errorf("open %d: parts differ from the archived object", id)
	}
	return nil
}

// checkMiniatures compares miniatures received over the wire with the
// server's encoded-miniature bytes.
func (rf *refs) checkMiniatures(res []wire.MiniatureResult) error {
	for _, r := range res {
		if !r.OK {
			return fmt.Errorf("miniature %d missing", r.ID)
		}
		b, err := descriptor.EncodePart(descriptor.PartBitmap, r.Mini)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, rf.miniBytes[r.ID]) {
			return fmt.Errorf("miniature %d differs from Server.MiniatureEncoded", r.ID)
		}
		if r.Mode != rf.modes[r.ID] {
			return fmt.Errorf("miniature %d: mode %v, want %v", r.ID, r.Mode, rf.modes[r.ID])
		}
	}
	return nil
}

// checkIDs compares a routed query answer with its reference.
func checkIDs(what string, got, want []object.ID) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d ids, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: id %d at %d, want %d", what, got[i], i, want[i])
		}
	}
	return nil
}

// warmMiniatures fetches every miniature through a routed client and
// checks it — the set-up pass that fills the servers' encoded caches.
func warmMiniatures(ctx context.Context, be workstation.Backend, rf *refs) error {
	res, _, err := be.MiniaturesCtx(ctx, rf.ids)
	if err != nil {
		return err
	}
	defer func() {
		for _, r := range res {
			if r.OK {
				r.Mini.Release()
			}
		}
	}()
	return rf.checkMiniatures(res)
}
