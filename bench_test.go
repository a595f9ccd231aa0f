// The benchmark harness: one benchmark per figure (F1-F10) and per
// measurable claim of the paper (E-*). EXPERIMENTS.md records the expected
// shapes against these measurements. Custom metrics (accuracy, bytes,
// hit rates, simulated response times) are emitted with b.ReportMetric so
// `go test -bench=. -benchmem` regenerates every row.
package minos

import (
	"context"
	"fmt"
	"testing"
	"time"

	"minos/internal/archiver"
	"minos/internal/core"
	"minos/internal/demo"
	"minos/internal/descriptor"
	"minos/internal/figures"
	img "minos/internal/image"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/text"
	"minos/internal/vclock"
	"minos/internal/voice"
	"minos/internal/wire"
)

// --- F1-F2: visual pages with text, graphics and bitmaps ---

func BenchmarkFig12VisualPageRender(b *testing.B) {
	o := figures.Fig12Object()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.New(core.Config{Screen: screen.New(512, 342), Clock: vclock.New()})
		if err := m.Open(o); err != nil {
			b.Fatal(err)
		}
		for m.PageNo() < m.PageCount()-1 {
			m.NextPage()
		}
	}
}

// --- F3-F4: visual logical message paging and the stored-once claim ---

func BenchmarkFig34LogicalMessagePaging(b *testing.B) {
	o := figures.Fig34Object()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.New(core.Config{Screen: screen.New(512, 342), Clock: vclock.New()})
		if err := m.Open(o); err != nil {
			b.Fatal(err)
		}
		for m.Screen().Strip() == nil {
			m.NextPage()
		}
		for m.Screen().Strip() != nil {
			m.NextPage()
		}
	}
}

func BenchmarkFig34StorageSharing(b *testing.B) {
	o := figures.Fig34Object()
	var shared, duplicated float64
	for i := 0; i < b.N; i++ {
		d, _, err := descriptor.Build(o)
		if err != nil {
			b.Fatal(err)
		}
		var bitmapBytes uint64
		for _, p := range d.Parts {
			if p.Kind == descriptor.PartBitmap {
				bitmapBytes += p.Length
			}
		}
		// The split view needs several sub-pages; a paper-document
		// layout would print the image once per page of related text.
		m := core.New(core.Config{Screen: screen.New(512, 342), Clock: vclock.New()})
		if err := m.Open(o); err != nil {
			b.Fatal(err)
		}
		pagesWithImage := 0
		for m.Screen().Strip() == nil {
			m.NextPage()
		}
		for m.Screen().Strip() != nil {
			pagesWithImage++
			m.NextPage()
		}
		shared = float64(bitmapBytes)
		duplicated = float64(bitmapBytes) * float64(pagesWithImage)
	}
	b.ReportMetric(shared, "bytes-stored-once")
	b.ReportMetric(duplicated, "bytes-if-duplicated")
	b.ReportMetric(duplicated/shared, "duplication-factor")
}

// --- F5-F6: transparency compositing ---

func BenchmarkFig56TransparencyCompositing(b *testing.B) {
	o := figures.Fig56Object()
	m := core.New(core.Config{Screen: screen.New(512, 342), Clock: vclock.New()})
	if err := m.Open(o); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ShowTransparencies(); err != nil {
			b.Fatal(err)
		}
		m.NextTransparency()
		m.PrevTransparency()
		m.GotoPage(0) // ends the set
	}
}

// --- F7-F8: relevant object overlay navigation ---

func BenchmarkFig78RelevantObjectOverlay(b *testing.B) {
	parent, university, hospitals := figures.Fig78Objects()
	resolver := func(id object.ID) (*object.Object, error) {
		if id == university.ID {
			return university, nil
		}
		return hospitals, nil
	}
	m := core.New(core.Config{Screen: screen.New(512, 342), Clock: vclock.New(), Resolver: resolver})
	if err := m.Open(parent); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.EnterRelevant(i % 2); err != nil {
			b.Fatal(err)
		}
		if err := m.ReturnFromRelevant(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F9-F10: process simulation ---

func BenchmarkFig910ProcessSimulation(b *testing.B) {
	o := figures.Fig910Object()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock := vclock.New()
		m := core.New(core.Config{Screen: screen.New(512, 342), Clock: clock})
		if err := m.Open(o); err != nil {
			b.Fatal(err)
		}
		if err := m.StartProcess("walk"); err != nil {
			b.Fatal(err)
		}
		clock.Run(10 * time.Minute)
		if m.ProcessRunning() {
			b.Fatal("simulation did not finish")
		}
	}
}

// --- E-SYM: symmetric browsing across text and voice twins ---

func BenchmarkESymSymmetricBrowse(b *testing.B) {
	markup := demo.FillerMarkup("lung", 240, 7)
	seg, err := text.Parse(markup)
	if err != nil {
		b.Fatal(err)
	}
	vis, err := object.NewBuilder(1, "twin", object.Visual).Text(markup).Build()
	if err != nil {
		b.Fatal(err)
	}
	syn := voice.Synthesize(text.Flatten(seg), voice.DefaultSpeaker(), 2000)
	syn.Part.Markers = voice.MarkersFromMarks(syn.Marks, text.UnitSentence)
	aud, err := object.NewBuilder(2, "twin spoken", object.Audio).VoicePart(syn.Part).Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	mismatches := 0
	for i := 0; i < b.N; i++ {
		mv := core.New(core.Config{Screen: screen.New(360, 240), Clock: vclock.New()})
		ma := core.New(core.Config{Screen: screen.New(360, 240), Clock: vclock.New(), AudioPageLen: 5 * time.Second})
		mv.Open(vis)
		ma.Open(aud)
		for j := 0; j < 6; j++ {
			mv.NextUnit(text.UnitSentence)
			ma.NextUnit(text.UnitSentence)
			audWord := -1
			for w, mark := range syn.Marks {
				if mark.Offset <= ma.Position() {
					audWord = w
				}
			}
			if audWord != mv.Position() {
				mismatches++
			}
		}
	}
	b.ReportMetric(float64(mismatches)/float64(b.N), "unit-mismatches/op")
}

// --- E-PAUSE: adaptive vs fixed-threshold pause classification ---

func BenchmarkEPauseDetection(b *testing.B) {
	markup := demo.FillerMarkup("voice", 200, 3)
	seg, err := text.Parse(markup)
	if err != nil {
		b.Fatal(err)
	}
	stream := text.Flatten(seg)
	speakers := []voice.Speaker{
		{WordsPerMinute: 100, PitchHz: 110, PauseScale: 1, NoiseAmp: 40, Seed: 1},
		{WordsPerMinute: 150, PitchHz: 120, PauseScale: 1, NoiseAmp: 40, Seed: 2},
		{WordsPerMinute: 60, PitchHz: 100, PauseScale: 3, NoiseAmp: 40, Seed: 3},
	}
	for _, mode := range []string{"adaptive", "fixed400ms"} {
		b.Run(mode, func(b *testing.B) {
			var correct, total int
			for i := 0; i < b.N; i++ {
				correct, total = 0, 0
				for _, sp := range speakers {
					syn := voice.Synthesize(stream, sp, 2000)
					cfg := voice.DetectorConfig{}
					if mode == "fixed400ms" {
						cfg.FixedLongThreshold = 400 * time.Millisecond
					}
					pauses := voice.DetectPauses(syn.Part, cfg)
					c, t := pauseAccuracy(syn, pauses)
					correct += c
					total += t
				}
			}
			if total > 0 {
				b.ReportMetric(float64(correct)/float64(total), "accuracy")
			}
		})
	}
}

func pauseAccuracy(syn *voice.Synthesis, pauses []voice.Pause) (correct, total int) {
	for i := 1; i < len(syn.Marks); i++ {
		m := syn.Marks[i]
		gapStart := m.Offset - int(int64(m.GapLen)*int64(syn.Part.Rate)/int64(time.Second))
		mid := (gapStart + m.Offset) / 2
		for j := range pauses {
			p := &pauses[j]
			if mid >= p.Offset && mid < p.Offset+p.Length {
				total++
				if p.Long == m.Gap.IsLong() {
					correct++
				}
				break
			}
		}
	}
	return correct, total
}

// --- E-PAT: indexed pattern browsing vs linear scan ---

func BenchmarkEPatIndexedVsScan(b *testing.B) {
	for _, words := range []int{200, 2000, 20000} {
		markup := demo.FillerMarkup("presentation", words, 11)
		o, err := object.NewBuilder(1, "pat", object.Visual).Text(markup).Build()
		if err != nil {
			b.Fatal(err)
		}
		stream := o.Stream()
		ix := index.New()
		ix.AddObject(o)
		b.Run(fmt.Sprintf("indexed/%dw", words), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				pos := -1
				for {
					p := ix.NextPhrase(1, stream, "subway tour", pos)
					if p == -1 {
						break
					}
					hits++
					pos = p
				}
			}
			_ = hits
		})
		b.Run(fmt.Sprintf("scan/%dw", words), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				pos := -1
				for {
					p := index.NextPhraseInStream(stream, "subway tour", pos)
					if p == -1 {
						break
					}
					hits++
					pos = p
				}
			}
			_ = hits
		})
	}
}

// --- E-VIEW: view on a representation vs full image transfer ---

func BenchmarkEViewVsFullImage(b *testing.B) {
	corpus, err := demo.Build(1<<16, 0)
	if err != nil {
		b.Fatal(err)
	}
	lt := wire.EthernetLink(&wire.Handler{Srv: corpus.Server})
	client := wire.NewClient(lt)
	id := corpus.FigureIDs["bigmap"]
	// Warm the server raster cache so both paths measure link transfer.
	if _, _, err := client.ImageViewCtx(context.Background(), id, "roadmap", img.Rect{X: 0, Y: 0, W: 8, H: 8}); err != nil {
		b.Fatal(err)
	}

	b.Run("view128x96", func(b *testing.B) {
		lt.ResetStats()
		for i := 0; i < b.N; i++ {
			if _, _, err := client.ImageViewCtx(context.Background(), id, "roadmap", img.Rect{X: 100, Y: 80, W: 128, H: 96}); err != nil {
				b.Fatal(err)
			}
		}
		st := lt.Stats()
		b.ReportMetric(float64(st.BytesRecv)/float64(b.N), "bytes/op")
		b.ReportMetric(float64(st.LinkTime.Microseconds())/float64(b.N), "linkµs/op")
	})
	b.Run("fullimage640x480", func(b *testing.B) {
		lt.ResetStats()
		for i := 0; i < b.N; i++ {
			if _, _, err := client.ImageViewCtx(context.Background(), id, "roadmap", img.Rect{X: 0, Y: 0, W: 640, H: 480}); err != nil {
				b.Fatal(err)
			}
		}
		st := lt.Stats()
		b.ReportMetric(float64(st.BytesRecv)/float64(b.N), "bytes/op")
		b.ReportMetric(float64(st.LinkTime.Microseconds())/float64(b.N), "linkµs/op")
	})
	b.Run("representation80x60", func(b *testing.B) {
		lt.ResetStats()
		for i := 0; i < b.N; i++ {
			if _, _, err := client.ImageViewCtx(context.Background(), id, "roadmap.mini", img.Rect{X: 0, Y: 0, W: 80, H: 60}); err != nil {
				b.Fatal(err)
			}
		}
		st := lt.Stats()
		b.ReportMetric(float64(st.BytesRecv)/float64(b.N), "bytes/op")
	})
}

// --- E-TOUR: tour playback on the virtual clock ---

func BenchmarkETourPlayback(b *testing.B) {
	big, err := demo.BigMapObject(1, 640, 480, 40)
	if err != nil {
		b.Fatal(err)
	}
	tour := img.Tour{Image: "roadmap", Size: img.Point{X: 160, Y: 120}, DwellMillis: 200}
	for i := 0; i < 8; i++ {
		tour.Stops = append(tour.Stops, img.TourStop{At: img.Point{X: i * 60, Y: i * 40}})
	}
	big.Tours = append(big.Tours, object.TourRef{Name: "sweep", Tour: tour})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock := vclock.New()
		m := core.New(core.Config{Screen: screen.New(512, 342), Clock: clock, VoiceOption: true})
		if err := m.Open(big); err != nil {
			b.Fatal(err)
		}
		if err := m.StartTour("sweep"); err != nil {
			b.Fatal(err)
		}
		clock.Run(time.Minute)
		if m.TourRunning() {
			b.Fatal("tour did not finish")
		}
	}
}

// --- E-QUEUE: server queueing under load ---

func BenchmarkEQueueServerLoad(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		for _, sched := range []server.SchedKind{server.FCFS, server.SSTF} {
			b.Run(fmt.Sprintf("clients%d/%s", clients, sched), func(b *testing.B) {
				var st server.SimStats
				for i := 0; i < b.N; i++ {
					corpus, err := demo.Build(1<<15, 16)
					if err != nil {
						b.Fatal(err)
					}
					st = corpus.Server.SimulateLoad(server.LoadConfig{
						Clients: clients, RequestsEach: 10,
						ThinkTime: 50 * time.Millisecond,
						PieceLen:  8192, Sched: sched, Seed: 99,
					})
				}
				b.ReportMetric(float64(st.Mean.Milliseconds()), "sim-mean-ms")
				b.ReportMetric(float64(st.P95.Milliseconds()), "sim-p95-ms")
				b.ReportMetric(st.Utilization, "utilization")
			})
		}
	}
}

// --- E-CACHE: block cache hit rate under browsing workloads ---

func BenchmarkECacheHitRate(b *testing.B) {
	for _, workload := range []string{"reread", "scan"} {
		b.Run(workload, func(b *testing.B) {
			corpus, err := demo.Build(1<<15, 24)
			if err != nil {
				b.Fatal(err)
			}
			// The cache holds 16 blocks: plenty for one object's pages
			// (the re-read workload) but far below the whole corpus, so a
			// sequential sweep with LRU keeps evicting what it will need
			// next round.
			srv := server.New(corpus.Server.Archiver(), server.WithCache(16))
			ids := srv.IDs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.ResetStats()
				switch workload {
				case "reread":
					// A browsing user re-reads the same object's pages.
					ext, _ := srv.Archiver().ExtentOf(ids[0])
					for j := 0; j < 30; j++ {
						srv.ReadPiece(ext.Start, min64(ext.Length, 16384))
					}
				case "scan":
					// A sequential sweep over every object.
					for _, id := range ids {
						ext, _ := srv.Archiver().ExtentOf(id)
						srv.ReadPiece(ext.Start, min64(ext.Length, 16384))
					}
				}
			}
			st := srv.Stats()
			if st.CacheHits+st.CacheMiss > 0 {
				b.ReportMetric(float64(st.CacheHits)/float64(st.CacheHits+st.CacheMiss), "hit-rate")
			}
		})
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// --- E-MINI: miniature browsing vs full object shipping ---

func BenchmarkEMiniatureBrowse(b *testing.B) {
	corpus, err := demo.Build(1<<16, 16)
	if err != nil {
		b.Fatal(err)
	}
	lt := wire.EthernetLink(&wire.Handler{Srv: corpus.Server})
	client := wire.NewClient(lt)
	ids := corpus.Server.IDs()

	b.Run("miniatures", func(b *testing.B) {
		lt.ResetStats()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if _, _, err := client.MiniaturesCtx(context.Background(), []object.ID{id}); err != nil {
					b.Fatal(err)
				}
			}
		}
		st := lt.Stats()
		b.ReportMetric(float64(st.BytesRecv)/float64(b.N)/float64(len(ids)), "bytes/object")
	})
	b.Run("fullobjects", func(b *testing.B) {
		lt.ResetStats()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				d, _, err := client.DescriptorCtx(context.Background(), id)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := d.Materialize(client.Fetch(nil)); err != nil {
					b.Fatal(err)
				}
			}
		}
		st := lt.Stats()
		b.ReportMetric(float64(st.BytesRecv)/float64(b.N)/float64(len(ids)), "bytes/object")
	})
}

// --- E-LABEL: label pattern highlight and inverse lookup ---

func BenchmarkELabelLookup(b *testing.B) {
	big, err := demo.BigMapObject(1, 640, 480, 120)
	if err != nil {
		b.Fatal(err)
	}
	im := big.ImageByName("roadmap")
	b.Run("highlight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matches := im.MatchLabels("hotel")
			im.HighlightMask(matches)
		}
	})
	b.Run("hittest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			im.HitTest(i%640, (i*7)%480)
		}
	})
}

// --- E-MAIL: mail-out pointer resolution ---

func BenchmarkEMailOut(b *testing.B) {
	corpus, err := demo.Build(1<<16, 4)
	if err != nil {
		b.Fatal(err)
	}
	arch := corpus.Server.Archiver()
	// Archive a second object sharing the big map's image part.
	shared, err := object.NewBuilder(901, "Annotated Map", object.Visual).
		Text(".title Annotated Map\nAnnotations referencing the shared city map data.\n").
		Image(demoMapCopy()).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := arch.Archive(shared, archiver.SharedPart{Part: "roadmap", From: 900, FromPart: "roadmap"}); err != nil {
		b.Fatal(err)
	}
	var insideBytes, outsideBytes int
	b.Run("inside", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blob, _, err := arch.MailOut(901, true)
			if err != nil {
				b.Fatal(err)
			}
			insideBytes = len(blob)
		}
		b.ReportMetric(float64(insideBytes), "blob-bytes")
	})
	b.Run("outside", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blob, _, err := arch.MailOut(901, false)
			if err != nil {
				b.Fatal(err)
			}
			outsideBytes = len(blob)
		}
		b.ReportMetric(float64(outsideBytes), "blob-bytes")
	})
}

func demoMapCopy() *img.Image {
	big, err := demo.BigMapObject(0, 640, 480, 60)
	if err != nil {
		panic(err)
	}
	return big.ImageByName("roadmap")
}

// --- E-RECOG: recognition anchors enable voice pattern browsing ---

func BenchmarkERecognitionAnchors(b *testing.B) {
	markup := demo.FillerMarkup("hospital", 300, 5)
	seg, err := text.Parse(markup)
	if err != nil {
		b.Fatal(err)
	}
	stream := text.Flatten(seg)
	syn := voice.Synthesize(stream, voice.DefaultSpeaker(), 2000)
	// Ground truth occurrences of the probe token.
	probe := "hospital"
	truth := 0
	for _, fw := range stream {
		if text.NormalizeToken(fw.Word.Text) == probe {
			truth++
		}
	}
	for _, hitRate := range []float64{0.0, 0.5, 0.9, 1.0} {
		b.Run(fmt.Sprintf("hitrate%.0f%%", hitRate*100), func(b *testing.B) {
			var recall float64
			for i := 0; i < b.N; i++ {
				rec := voice.NewRecognizer([]string{probe})
				rec.HitRate = hitRate
				if hitRate == 0 {
					rec.HitRate = 0.0001 // zero disables the default
				}
				utts := rec.Recognize(syn.Marks)
				found := 0
				pos := -1
				for {
					u := voice.NextUtterance(utts, probe, pos)
					if u == nil {
						break
					}
					found++
					pos = u.Offset
				}
				if truth > 0 {
					recall = float64(found) / float64(truth)
				}
			}
			b.ReportMetric(recall, "recall")
		})
	}
}
