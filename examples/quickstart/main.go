// Quickstart: author a multimedia object with the builder, archive it on
// the (simulated) optical disk through the object server, query it back by
// content over the wire protocol, and browse it with the presentation
// manager.
package main

import (
	"context"
	"fmt"
	"log"

	"minos/internal/archiver"
	"minos/internal/core"
	"minos/internal/disk"
	img "minos/internal/image"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/vclock"
	"minos/internal/wire"
	"minos/internal/workstation"
)

func main() {
	// 1. Author a multimedia object: formatted text plus a drawing.
	diagram := img.New("diagram", 180, 70)
	diagram.Add(img.Graphic{Shape: img.ShapeRect, Points: []img.Point{{X: 4, Y: 4}}, Size: img.Point{X: 60, Y: 30}})
	diagram.Add(img.Graphic{Shape: img.ShapeText, Points: []img.Point{{X: 8, Y: 40}}, Text: "ARCHIVE"})

	obj, err := object.NewBuilder(1, "Getting Started", object.Visual).
		Attr("author", "quickstart").
		Text(`.title Getting Started
.chapter Welcome
This object was authored with the builder and archived on the optical disk. Browsing commands move between its visual pages and jump to chapters or pattern occurrences.
.chapter Details
The archive stores the descriptor concatenated with the composition file. The server ships pieces of it to the workstation on demand.
`).
		Image(diagram).
		PlaceImageAfterWord("diagram", 10).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Publish it to an object server backed by a simulated optical disk.
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(4096))
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(archiver.New(dev))
	if _, err := srv.Publish(obj); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archived object %d (%s state)\n", obj.ID, obj.State)

	// 3. Connect a workstation session over the (simulated Ethernet) wire.
	link := wire.EthernetLink(&wire.Handler{Srv: srv})
	sess := workstation.New(wire.NewClient(link), core.Config{
		Screen: screen.New(400, 260),
		Clock:  vclock.New(),
	})
	defer sess.Close()

	// 4. Query by content and open the result.
	ctx := context.Background()
	n, err := sess.QueryCtx(ctx, "optical", "disk")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query 'optical disk' matched %d object(s)\n", n)
	if _, err := sess.NextMiniatureCtx(ctx); err != nil {
		log.Fatal(err)
	}
	if err := sess.OpenSelected(); err != nil {
		log.Fatal(err)
	}

	// 5. Browse.
	m := sess.Manager()
	fmt.Printf("opened %q: %d visual pages, menu: %v\n", m.Object().Title, m.PageCount(), m.Screen().Menu()[:4])
	if err := m.FindPattern("composition file"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern 'composition file' found on page %d\n", m.PageNo()+1)
	stats := link.Stats()
	fmt.Printf("link usage: %d round trips, %d bytes received\n", stats.RoundTrips, stats.BytesRecv)
}
