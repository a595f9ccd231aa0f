package wire

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"minos/internal/archiver"
	"minos/internal/disk"
	"minos/internal/index"
	"minos/internal/object"
	"minos/internal/server"
)

func plannedTestServer(t testing.TB) *server.Server {
	t.Helper()
	dev, err := disk.NewOptical("opt0", disk.OpticalGeometry(4096))
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(archiver.New(dev))
	add := func(id object.ID, mode object.Mode, date, body string) {
		b := object.NewBuilder(id, "report", mode).Text(body)
		if date != "" {
			b = b.Attr("date", date)
		}
		o, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Publish(o); err != nil {
			t.Fatal(err)
		}
	}
	add(1, object.Visual, "1986-03-01", ".title A\nthe lung shadow report.\n")
	add(2, object.Visual, "1986-07-15", ".title B\nthe lung rhythm report.\n")
	add(3, object.Audio, "1986-07-20", ".title C\nthe lung shadow dictation.\n")
	add(4, object.Audio, "", ".title D\nthe heart dictation.\n")
	return s
}

func TestQueryPlannedOverWire(t *testing.T) {
	c := NewClient(EthernetLink(&Handler{Srv: plannedTestServer(t)}))
	got := func(q index.Query) []object.ID {
		t.Helper()
		ids, _, err := c.QueryPlannedCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	if ids := got(index.Query{Terms: []string{"lung"}}); len(ids) != 3 {
		t.Fatalf("terms only = %v", ids)
	}
	if ids := got(index.Query{Terms: []string{"lung"}, Kind: index.KindAudio}); len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("kind filter = %v", ids)
	}
	from, _ := index.ParseDate("1986-07-01")
	to, _ := index.ParseDate("1986-12-31")
	if ids := got(index.Query{Terms: []string{"lung"}, DateFrom: from, DateTo: to}); len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("date filter = %v", ids)
	}
	// Attribute-only query: no terms, kind filter alone. Object 4 has no
	// date attr, so a dated range excludes it.
	if ids := got(index.Query{Kind: index.KindAudio}); len(ids) != 2 {
		t.Fatalf("attr-only = %v", ids)
	}
	if ids := got(index.Query{Kind: index.KindAudio, DateFrom: from}); len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("attr-only dated = %v", ids)
	}
	if ids := got(index.Query{Terms: []string{"absent"}}); len(ids) != 0 {
		t.Fatalf("missing term = %v", ids)
	}
}

func TestQueryPlannedRejectsHostileRequests(t *testing.T) {
	h := &Handler{Srv: plannedTestServer(t)}
	// Truncations of a valid request must all error, never panic.
	valid := encodeQueryPlannedReq(index.Query{Terms: []string{"lung", "shadow"}, Kind: index.KindAudio})
	for n := 0; n < len(valid); n++ {
		resp := h.Handle(valid[:n])
		if len(resp) == 0 || resp[0] != statusErr {
			t.Fatalf("truncated request len %d accepted", n)
		}
	}
	// Hostile term count.
	req := []byte{OpQueryPlanned, 0}
	req = appendU32(req, 0)
	req = appendU32(req, 0)
	req = appendU32(req, MaxQueryTerms+1)
	if resp := h.Handle(req); resp[0] != statusErr || !strings.Contains(string(resp[respHeader:]), "exceeds") {
		t.Fatalf("oversized conjunction accepted: %q", resp)
	}
	// Unknown kind byte.
	req = []byte{OpQueryPlanned, 9}
	req = appendU32(req, 0)
	req = appendU32(req, 0)
	req = appendU32(req, 0)
	if resp := h.Handle(req); resp[0] != statusErr {
		t.Fatal("bad kind accepted")
	}
}

// TestRetiredOpsAnswerUnknownOp: ops 1 (OpQuery), 4 (OpMiniature) and 6
// (OpMode) are retired — well-formed requests for them get the handler's
// "unknown op" error, like any op it never had.
func TestRetiredOpsAnswerUnknownOp(t *testing.T) {
	h := &Handler{Srv: plannedTestServer(t)}
	for _, req := range [][]byte{
		appendStr(appendU32([]byte{OpQuery}, 1), "lung"),
		appendU64([]byte{OpMiniature}, 1),
		appendU64([]byte{OpMode}, 1),
	} {
		_, _, err := parseResponse(h.Handle(req))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown op %d", req[0])) {
			t.Fatalf("retired op %d: err = %v, want unknown op", req[0], err)
		}
	}
}
