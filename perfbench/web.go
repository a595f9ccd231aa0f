package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image"
	"image/png"

	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"minos/internal/object"
)

// Web workload: independent browser users over the gateway, an open loop.
const (
	webSessions = 64
	// webRate is the fixed Poisson arrival rate (actions per second over
	// all sessions). `--calibrate` measured the gateway's closed-loop
	// saturation at about 6500 actions/s on a 2-CPU host; at half of that
	// the two HTTP connections queue deeply enough that the median moved
	// by up to 5x from run to run, so the rate is a quarter of it.
	webRate = 1600.0
	// Script shape per session: a query, then 4-12 next-steps; after a
	// step the user opens the object (open + view.png) with probability
	// webOpenP, or refetches its miniature PNG with probability webMiniP.
	webStepsMin = 4
	webStepsMax = 12
	webOpenP    = 0.08
	webMiniP    = 0.08
)

// webTerms are the query terms web users type: the load corpus's topic
// vocabulary.
var webTerms = []string{
	"lung", "heart", "shadow", "rhythm", "archive", "optical", "voice",
	"image", "browsing", "presentation", "workstation", "server", "map",
	"hospital", "university", "subway", "tour", "transparency", "report",
}

func (sys *system) do(ctx context.Context, method, path string, hdr string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, sys.baseURL+path, nil)
	if err != nil {
		return 0, err
	}
	if hdr != "" {
		req.Header.Set(reqHeader, hdr)
	}
	resp, err := sys.httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (sys *system) postJSON(ctx context.Context, path string, out any) error {
	var buf bytes.Buffer
	code, err := sys.do(ctx, http.MethodPost, path, "", &buf)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, code, bytes.TrimSpace(buf.Bytes()))
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// webUser is one browser session's script state.
type webUser struct {
	sid     uint64
	rng     *rand.Rand
	terms   *deck[string]
	results []object.ID // expected result list of the current query
	cursor  int
	left    int    // steps left before the next query
	next    string // "query", "step", "open" or "mini"
	buf     bytes.Buffer
}

type stepEvent struct {
	Kind  string    `json:"kind"`
	Obj   object.ID `json:"obj"`
	Mode  string    `json:"mode"`
	Done  bool      `json:"done"`
	Stale bool      `json:"stale"`
}

// act performs the user's next scripted action and checks its answer.
func (u *webUser) act(ctx context.Context, sys *system, rf *refs, hdr string) (kind string, err error) {
	kind = u.next
	switch kind {
	case "query":
		term := u.terms.deal()
		code, err := sys.do(ctx, http.MethodPost, fmt.Sprintf("/session/%d/query?q=%s", u.sid, term), hdr, &u.buf)
		if err = httpErr(code, err, &u.buf); err != nil {
			return kind, err
		}
		var out struct {
			Hits int `json:"hits"`
		}
		if err := json.Unmarshal(u.buf.Bytes(), &out); err != nil {
			return kind, fmt.Errorf("query %q: %w", term, err)
		}
		want := rf.termResults[term]
		u.results, u.cursor = want, -1
		u.left = webStepsMin + u.rng.Intn(webStepsMax-webStepsMin+1)
		u.next = "step"
		if out.Hits != len(want) {
			return kind, fmt.Errorf("query %q: %d hits, want %d", term, out.Hits, len(want))
		}
	case "step":
		code, err := sys.do(ctx, http.MethodPost, fmt.Sprintf("/session/%d/step?dir=next", u.sid), hdr, &u.buf)
		if err = httpErr(code, err, &u.buf); err != nil {
			return kind, err
		}
		var ev stepEvent
		if err := json.Unmarshal(u.buf.Bytes(), &ev); err != nil {
			return kind, fmt.Errorf("step: %w", err)
		}
		u.left--
		if u.cursor+1 >= len(u.results) {
			u.next = "query"
			if !ev.Done {
				return kind, fmt.Errorf("step past the end: got object %d, want done", ev.Obj)
			}
			return kind, nil
		}
		u.cursor++
		want := u.results[u.cursor]
		u.next = "step"
		if u.left <= 0 {
			u.next = "query"
		}
		switch r := u.rng.Float64(); {
		case r < webOpenP:
			u.next = "open"
		case r < webOpenP+webMiniP:
			u.next = "mini"
		}
		if ev.Done || ev.Obj != want || ev.Stale || ev.Mode != rf.modes[want].String() {
			return kind, fmt.Errorf("step %d: got object %d (mode %q, done %v, stale %v), want %d (%s)",
				u.cursor, ev.Obj, ev.Mode, ev.Done, ev.Stale, want, rf.modes[want])
		}
	case "open":
		id := u.results[u.cursor]
		u.next = "step"
		if u.left <= 0 {
			u.next = "query"
		}
		code, err := sys.do(ctx, http.MethodPost, fmt.Sprintf("/session/%d/open?obj=%d", u.sid, id), hdr, &u.buf)
		if err = httpErr(code, err, &u.buf); err != nil {
			return kind, err
		}
		var ev stepEvent
		if err := json.Unmarshal(u.buf.Bytes(), &ev); err != nil {
			return kind, fmt.Errorf("open: %w", err)
		}
		if ev.Kind != "opened" || ev.Obj != id {
			return kind, fmt.Errorf("open %d: got %q event for %d", id, ev.Kind, ev.Obj)
		}
		code, err = sys.do(ctx, http.MethodGet, fmt.Sprintf("/session/%d/view.png", u.sid), hdr, &u.buf)
		if err = httpErr(code, err, &u.buf); err != nil {
			return kind, err
		}
		if err := checkPNG(u.buf.Bytes(), rf.views[id]); err != nil {
			return kind, fmt.Errorf("view of %d: %w", id, err)
		}
	case "mini":
		id := u.results[u.cursor]
		u.next = "step"
		if u.left <= 0 {
			u.next = "query"
		}
		code, err := sys.do(ctx, http.MethodGet, fmt.Sprintf("/session/%d/mini/%d.png", u.sid, id), hdr, &u.buf)
		if err = httpErr(code, err, &u.buf); err != nil {
			return kind, err
		}
		if err := checkPNG(u.buf.Bytes(), rf.minis[id]); err != nil {
			return kind, fmt.Errorf("miniature PNG of %d: %w", id, err)
		}
	}
	return kind, nil
}

func httpErr(code int, err error, buf *bytes.Buffer) error {
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// checkPNG decodes a gateway PNG and compares its pixels with the
// reference bitmap (one byte per pixel, 1 = ink).
func checkPNG(data []byte, want *pixRef) error {
	if want == nil {
		return fmt.Errorf("no reference image")
	}
	im, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return err
	}
	p, ok := im.(*image.Paletted)
	if !ok {
		return fmt.Errorf("decoded %T, want a paletted image", im)
	}
	if p.Rect.Dx() != want.w || p.Rect.Dy() != want.h {
		return fmt.Errorf("size %dx%d, want %dx%d", p.Rect.Dx(), p.Rect.Dy(), want.w, want.h)
	}
	for y := 0; y < want.h; y++ {
		row := p.Pix[y*p.Stride : y*p.Stride+want.w]
		if !bytes.Equal(row, want.pix[y*want.w:(y+1)*want.w]) {
			return fmt.Errorf("pixels differ from the reference in row %d", y)
		}
	}
	return nil
}

// poissonSchedule returns the due times (offsets from the start) of one
// session's arrivals: exponential gaps at rate per second, up to horizon.
func poissonSchedule(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return nil
	}
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return out
		}
		out = append(out, d)
	}
}

// openLoop runs one session's schedule: each action is timed from when it
// was due, so a stall also charges the actions queued behind it; lateness
// is how far behind its schedule the session issued each action.
func openLoop(start time.Time, due []time.Duration, stop <-chan struct{}, act func(dueAt time.Time) (time.Time, error), rec *recorder, kindOf func() string) {
	for _, d := range due {
		dueAt := start.Add(d)
		if wait := time.Until(dueAt); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return
			}
		}
		kind := kindOf()
		issued := time.Now()
		rec.attempted++
		end, err := act(dueAt)
		rec.late = append(rec.late, int64(issued.Sub(dueAt)))
		if err != nil {
			rec.fail(kind, err)
			continue
		}
		rec.add(kind, int64(end.Sub(dueAt)), end)
	}
}

// webHeader formats the request/span ids the handler wrapper links under.
func webHeader(req, spanID uint64) string {
	return strconv.FormatUint(req, 10) + "/" + strconv.FormatUint(spanID, 10)
}

// newWebUsers builds one script per gateway session.
func newWebUsers(sys *system, seed uint64) []*webUser {
	users := make([]*webUser, len(sys.sids))
	for i, sid := range sys.sids {
		rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(i)))
		users[i] = &webUser{sid: sid, rng: rng, terms: newDeck(webTerms, rng), next: "query"}
	}
	return users
}

// warmWeb fills the gateway PNG cache and the servers' encoded caches,
// renders every object once, and runs each user through a query and its
// first steps so every session's prefetch window is warm.
func warmWeb(sys *system, rf *refs, users []*webUser) error {
	ctx := context.Background()
	var buf bytes.Buffer
	sid := sys.sids[0]
	for _, id := range rf.ids {
		code, err := sys.do(ctx, http.MethodGet, fmt.Sprintf("/session/%d/mini/%d.png", sid, id), "", &buf)
		if err = httpErr(code, err, &buf); err != nil {
			return fmt.Errorf("warm miniature %d: %w", id, err)
		}
		if err := checkPNG(buf.Bytes(), rf.minis[id]); err != nil {
			return fmt.Errorf("warm miniature %d: %w", id, err)
		}
		var ev stepEvent
		code, err = sys.do(ctx, http.MethodPost, fmt.Sprintf("/session/%d/open?obj=%d", sid, id), "", &buf)
		if err = httpErr(code, err, &buf); err != nil {
			return fmt.Errorf("warm open %d: %w", id, err)
		}
		if err := json.Unmarshal(buf.Bytes(), &ev); err != nil || ev.Obj != id {
			return fmt.Errorf("warm open %d: bad event %q", id, buf.Bytes())
		}
		code, err = sys.do(ctx, http.MethodGet, fmt.Sprintf("/session/%d/view.png", sid), "", &buf)
		if err = httpErr(code, err, &buf); err != nil {
			return fmt.Errorf("warm view %d: %w", id, err)
		}
		if err := checkPNG(buf.Bytes(), rf.views[id]); err != nil {
			return fmt.Errorf("warm view %d: %w", id, err)
		}
	}
	errs := make(chan error, len(users))
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1+webStepsMin; k++ {
				if _, err := u.act(ctx, sys, rf, ""); err != nil {
					errs <- fmt.Errorf("warm session %d: %w", u.sid, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// runWeb runs every user's Poisson schedule (webRate actions per second
// over all users) until the deadline. With closed set, users instead issue
// their next action as soon as the last one answers — the saturation
// probe behind webRate.
func runWeb(sys *system, rf *refs, users []*webUser, seed uint64, start, deadline time.Time, closed bool) []*recorder {
	recs := make([]*recorder, len(users))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, u := range users {
		rec := newRecorder()
		recs[i] = rec
		var due []time.Duration
		if !closed {
			sched := rand.New(rand.NewSource(int64(seed)*7919 + int64(i)))
			due = poissonSchedule(sched, webRate/float64(len(users)), deadline.Sub(start))
		}
		act := func(dueAt time.Time) (time.Time, error) {
			ctx := context.Background()
			a := rec.begin(sys.tr, u.next, nil)
			hdr := ""
			var waited int64
			if a != nil {
				hdr = webHeader(a.a.req, a.a.span)
				ctx = queueProbe(ctx, sys.tr, &a.a, &waited)
			}
			_, err := u.act(ctx, sys, rf, hdr)
			end := time.Now()
			rec.end(sys.tr, a, nil, 0)
			if a != nil {
				rec.queueWait = append(rec.queueWait, waited)
			}
			return end, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !closed {
				openLoop(start, due, stop, act, rec, func() string { return u.next })
				return
			}
			for time.Now().Before(deadline) {
				kind := u.next
				t0 := time.Now()
				rec.attempted++
				end, err := act(t0)
				if err != nil {
					rec.fail(kind, err)
				} else if end.Before(deadline) {
					rec.add(kind, int64(end.Sub(t0)), end)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	return recs
}
