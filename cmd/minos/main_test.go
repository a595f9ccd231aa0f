package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"minos/internal/core"
	"minos/internal/demo"
	"minos/internal/figures"
	"minos/internal/screen"
	"minos/internal/text"
	"minos/internal/vclock"
)

func TestRunSubcommands(t *testing.T) {
	cases := [][]string{
		{"-fillers", "2", "query", "lung"},
		{"-fillers", "2", "query", "lung", "kind:visual", "after:1980-01-01"},
		{"-fillers", "2", "list"},
		{"-fillers", "2", "-script", "next,prev,find:opacity,nextunit:chapter", "browse", "102"},
		{"-fillers", "2", "-script", "transp,transp:next,goto:0", "browse", "103"},
		{"-fillers", "2", "-script", "process:walk,wait:600", "browse", "104"},
		{"-fillers", "2", "-clients", "4", "-requests", "4", "simulate"},
		{"-fillers", "2", "-clients", "4", "-requests", "4", "-sched", "sstf", "simulate"},
		{"-fillers", "0", "mailout", "102"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestListPrintsEveryPublishedID: `list` enumerates the server's whole
// corpus — filler documents included — not the hits of some query.
func TestListPrintsEveryPublishedID(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run([]string{"-fillers", "8", "list"})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	c, err := demo.Build(1<<16, 8)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, id := range c.Server.IDs() {
		fmt.Fprintf(&want, "  object %d\n", id)
	}
	if string(out) != want.String() {
		t.Fatalf("list printed\n%s\nwant\n%s", out, want.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"query"},
		{"query", "lung", "kind:nope"},
		{"browse"},
		{"browse", "notanumber"},
		{"browse", "424242"},
		{"mailout"},
		{"mailout", "nope"},
		{"-sched", "lottery", "simulate"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestApplyCommandCoverage(t *testing.T) {
	m := core.New(core.Config{Screen: screen.New(300, 200), Clock: vclock.New()})
	if err := m.Open(figures.Fig12Object()); err != nil {
		t.Fatal(err)
	}
	good := []string{
		"next", "prev", "advance:2", "goto:0", "find:server",
		"nextunit:chapter", "prevunit:chapter", "wait:1", "screen",
	}
	for _, cmd := range good {
		if err := applyCommand(m, cmd); err != nil {
			t.Errorf("%q: %v", cmd, err)
		}
	}
	bad := []string{"zap", "nextunit:decade", "view:ghost:0:0:10:10", "rewind:1:long"}
	for _, cmd := range bad {
		if err := applyCommand(m, cmd); err == nil {
			t.Errorf("%q accepted", cmd)
		}
	}
}

func TestParseUnit(t *testing.T) {
	for name, want := range map[string]text.Unit{
		"word": text.UnitWord, "sentence": text.UnitSentence,
		"paragraph": text.UnitParagraph, "section": text.UnitSection,
		"chapter": text.UnitChapter,
	} {
		got, err := parseUnit(name)
		if err != nil || got != want {
			t.Errorf("parseUnit(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseUnit("volume"); err == nil {
		t.Error("bad unit accepted")
	}
}

func TestInteractiveSession(t *testing.T) {
	sess, _, err := openSession("", false, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	script := strings.NewReader(`query lung
cursor next
open
next
prev
find opacity
refine shadow
bogus
open 102
quit
`)
	if err := interactive(sess, script); err != nil {
		t.Fatal(err)
	}
	if sess.Manager().Object() == nil {
		t.Fatal("interactive session opened nothing")
	}
}
