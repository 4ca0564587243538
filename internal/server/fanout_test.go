package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fisql/internal/obs"
	"fisql/internal/persist"
)

// readFrame parses one SSE frame (optional id line, event line, data line)
// from a live stream.
func readFrame(r *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	started := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "" {
			if started {
				return ev, nil
			}
			continue
		}
		started = true
		switch {
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		default:
			return ev, fmt.Errorf("unexpected SSE line %q", line)
		}
	}
}

// subscribe opens the fanout stream and returns the response plus a frame
// reader; from > 0 resumes via the Last-Event-ID header.
func subscribe(t *testing.T, ts *httptest.Server, sid string, from uint64) (*http.Response, *bufio.Reader) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/"+sid+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if from > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(from, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe: status %d body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("subscribe: Content-Type %q", ct)
	}
	return resp, bufio.NewReader(resp.Body)
}

// collectUntilEOF reads frames until the stream ends (topic closed).
func collectUntilEOF(t *testing.T, r *bufio.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	for {
		ev, err := readFrame(r)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return out
			}
			t.Fatalf("read frame: %v", err)
		}
		out = append(out, ev)
	}
}

// collectN reads exactly n frames and leaves the stream open.
func collectN(t *testing.T, r *bufio.Reader, n int) []sseEvent {
	t.Helper()
	out := make([]sseEvent, 0, n)
	for len(out) < n {
		ev, err := readFrame(r)
		if err != nil {
			t.Fatalf("read frame %d: %v", len(out), err)
		}
		out = append(out, ev)
	}
	return out
}

// checkContiguous requires the events' id lines to be the exact sequence
// first, first+1, ... (every fanout event carries its topic seq).
func checkContiguous(t *testing.T, events []sseEvent, first uint64, context string) {
	t.Helper()
	for i, ev := range events {
		want := strconv.FormatUint(first+uint64(i), 10)
		if ev.id != want {
			t.Fatalf("%s: event %d (%s) has id %q, want %q", context, i, ev.name, ev.id, want)
		}
	}
}

func fanoutServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	f := factory(t)
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": f}, opts...))
	t.Cleanup(ts.Close)
	return ts
}

func sendFeedback(t *testing.T, ts *httptest.Server, sid, text string) []byte {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"text": text})
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sid+"/feedback", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback: status %d body %s", resp.StatusCode, raw)
	}
	return raw
}

func deleteSession(t *testing.T, ts *httptest.Server, sid string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sid, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
}

// TestEventsReplayThenLive: a subscriber that attaches late replays the
// ring from the beginning, then follows live turns, and the stream ends
// after the delete event. Every event id is gap-free, and each done
// payload is byte-identical to the plain ask body that produced it.
func TestEventsReplayThenLive(t *testing.T) {
	ts := fanoutServer(t)
	sid := newTestSession(t, ts)
	plain1 := askPlain(t, ts, sid, "how many users are there")
	fbBody := sendFeedback(t, ts, sid, "only count users from this year")

	resp, r := subscribe(t, ts, sid, 0)
	defer resp.Body.Close()
	// Replayed prefix: open, then ask turn, then feedback turn.
	replayed := collectN(t, r, 1+4+5)
	checkContiguous(t, replayed, 1, "replayed prefix")
	wantTypes := []string{"open", "sql", "explanation", "result", "done",
		"feedback", "sql", "explanation", "result", "done"}
	for i, want := range wantTypes {
		if replayed[i].name != want {
			t.Fatalf("replayed event %d is %q, want %q", i, replayed[i].name, want)
		}
	}
	if got := replayed[4].data + "\n"; got != string(plain1) {
		t.Errorf("replayed done differs from plain ask body\nfanout: %s\nplain:  %s",
			replayed[4].data, plain1)
	}
	if got := replayed[9].data + "\n"; got != string(fbBody) {
		t.Errorf("feedback-turn done differs from feedback response body\nfanout: %s\nplain:  %s",
			replayed[9].data, fbBody)
	}
	var fb struct {
		Text           string `json:"text"`
		HighlightStart int    `json:"highlight_start"`
	}
	if err := json.Unmarshal([]byte(replayed[5].data), &fb); err != nil ||
		fb.Text != "only count users from this year" || fb.HighlightStart != -1 {
		t.Errorf("feedback event data %q (err %v)", replayed[5].data, err)
	}

	// Live tail: another turn, then the delete.
	plain2 := askPlain(t, ts, sid, "list all users")
	deleteSession(t, ts, sid)
	tail := collectUntilEOF(t, r)
	if len(tail) != 5 {
		t.Fatalf("live tail has %d events, want 5 (sql..done, delete): %+v", len(tail), tail)
	}
	checkContiguous(t, tail, 11, "live tail")
	if tail[3].name != "done" || tail[3].data+"\n" != string(plain2) {
		t.Errorf("live done event mismatch: %+v", tail[3])
	}
	if tail[4].name != "delete" {
		t.Errorf("terminal event is %q, want delete", tail[4].name)
	}
}

// TestEventsResumeViaLastEventID: disconnecting mid-stream and resuming
// with Last-Event-ID yields the exact continuation — no gap, no duplicate.
func TestEventsResumeViaLastEventID(t *testing.T) {
	ts := fanoutServer(t)
	sid := newTestSession(t, ts)
	askPlain(t, ts, sid, "how many users are there")

	resp, r := subscribe(t, ts, sid, 0)
	firstHalf := collectN(t, r, 3) // open, sql, explanation
	resp.Body.Close()              // drop the connection mid-turn

	askPlain(t, ts, sid, "list all users")
	last, _ := strconv.ParseUint(firstHalf[len(firstHalf)-1].id, 10, 64)
	resp2, r2 := subscribe(t, ts, sid, last)
	defer resp2.Body.Close()
	deleteSession(t, ts, sid)
	secondHalf := collectUntilEOF(t, r2)

	all := append(firstHalf, secondHalf...)
	checkContiguous(t, all, 1, "stitched stream")
	want := []string{"open", "sql", "explanation", "result", "done",
		"sql", "explanation", "result", "done", "delete"}
	if len(all) != len(want) {
		t.Fatalf("stitched stream has %d events, want %d: %+v", len(all), len(want), all)
	}
	for i, w := range want {
		if all[i].name != w {
			t.Errorf("stitched event %d is %q, want %q", i, all[i].name, w)
		}
	}
}

// TestEventsRingLapMarksDrop: a resume point the ring no longer retains is
// announced as a dropped gap, never silently skipped.
func TestEventsRingLapMarksDrop(t *testing.T) {
	ts := fanoutServer(t, WithPubSubRing(4))
	sid := newTestSession(t, ts)
	askPlain(t, ts, sid, "how many users are there")
	askPlain(t, ts, sid, "list all users")
	// 9 events published (open + 2×4); the 4-slot ring retains 6..9.

	resp, r := subscribe(t, ts, sid, 0)
	defer resp.Body.Close()
	first := collectN(t, r, 1)[0]
	if first.name != "dropped" || first.id != "" {
		t.Fatalf("first frame = %+v, want an un-sequenced dropped marker", first)
	}
	var gap struct {
		Missed int `json:"missed"`
	}
	if err := json.Unmarshal([]byte(first.data), &gap); err != nil || gap.Missed != 5 {
		t.Fatalf("dropped data %q, want missed=5 (err %v)", first.data, err)
	}
	deleteSession(t, ts, sid)
	rest := collectUntilEOF(t, r)
	checkContiguous(t, rest, 6, "post-gap stream")
	if rest[len(rest)-1].name != "delete" {
		t.Fatalf("stream did not end with delete: %+v", rest)
	}
}

// TestEventsSessionChecks: unknown and deleted sessions answer 404; a bad
// Last-Event-ID answers 400.
func TestEventsSessionChecks(t *testing.T) {
	ts := fanoutServer(t)
	get := func(path, lastID string) int {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainBody(resp)
		return resp.StatusCode
	}
	if code := get("/v1/sessions/nope/events", ""); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", code)
	}
	sid := newTestSession(t, ts)
	if code := get("/v1/sessions/"+sid+"/events", "not-a-number"); code != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID: status %d, want 400", code)
	}
	deleteSession(t, ts, sid)
	if code := get("/v1/sessions/"+sid+"/events", ""); code != http.StatusNotFound {
		t.Errorf("deleted session: status %d, want 404", code)
	}
}

// TestWantsSSECaseInsensitive pins the RFC 9110 case-insensitivity of the
// Accept media type, with and without parameters.
func TestWantsSSECaseInsensitive(t *testing.T) {
	for _, accept := range []string{
		"text/event-stream",
		"Text/Event-Stream",
		"TEXT/EVENT-STREAM",
		"text/event-stream;charset=utf-8",
		"Text/Event-Stream ; charset=utf-8",
		"application/json, TEXT/event-stream;q=0.9",
		"application/json,\ttext/event-stream",
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions/s1/ask", nil)
		r.Header.Set("Accept", accept)
		if !wantsSSE(r) {
			t.Errorf("wantsSSE rejected Accept: %q", accept)
		}
	}
	for _, accept := range []string{
		"application/json",
		"text/event-streamx",
		"text/html, */*",
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions/s1/ask", nil)
		r.Header.Set("Accept", accept)
		if wantsSSE(r) {
			t.Errorf("wantsSSE accepted Accept: %q", accept)
		}
	}
}

// TestMixedCaseAcceptStreams: end to end, a mixed-case Accept value gets a
// real event stream, not the silent JSON fallback it used to get.
func TestMixedCaseAcceptStreams(t *testing.T) {
	ts := testServer(t)
	sid := newTestSession(t, ts)
	body, _ := json.Marshal(map[string]string{"question": "how many users are there"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+sid+"/ask",
		bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "Text/Event-Stream;charset=utf-8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("mixed-case Accept got Content-Type %q, want text/event-stream", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	checkSequence(t, parseSSE(t, raw), "mixed-case accept")
}

// noFlushWriter is a ResponseWriter that genuinely cannot stream — unlike
// httptest.ResponseRecorder, it implements no Flush.
type noFlushWriter struct {
	header http.Header
	buf    bytes.Buffer
	code   int
}

func newNoFlushWriter() *noFlushWriter {
	return &noFlushWriter{header: make(http.Header), code: http.StatusOK}
}

func (w *noFlushWriter) Header() http.Header         { return w.header }
func (w *noFlushWriter) WriteHeader(code int)        { w.code = code }
func (w *noFlushWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// TestStreamAskNoFlusherFallsBackToJSON: an SSE opt-in over a connection
// with no Flusher must get the plain JSON body (counted), not a fake
// stream delivered as one burst.
func TestStreamAskNoFlusherFallsBackToJSON(t *testing.T) {
	f := factory(t)
	m := obs.NewMetrics()
	srv := New(map[string]SessionFactory{"aep": f}, WithMetrics(m))

	create := newNoFlushWriter()
	body, _ := json.Marshal(map[string]string{"corpus": "aep"})
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
	srv.ServeHTTP(create, req)
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(create.buf.Bytes(), &created); err != nil || created.SessionID == "" {
		t.Fatalf("create: %s (err %v)", create.buf.Bytes(), err)
	}

	ask := newNoFlushWriter()
	body, _ = json.Marshal(map[string]string{"question": "how many users are there"})
	req = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+created.SessionID+"/ask",
		bytes.NewReader(body))
	req.Header.Set("Accept", "text/event-stream")
	srv.ServeHTTP(ask, req)
	if ask.code != http.StatusOK {
		t.Fatalf("ask: status %d body %s", ask.code, ask.buf.Bytes())
	}
	if ct := ask.header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("no-Flusher SSE opt-in got Content-Type %q, want the JSON fallback", ct)
	}
	var ans struct {
		SQL string `json:"sql"`
	}
	if err := json.Unmarshal(ask.buf.Bytes(), &ans); err != nil || ans.SQL == "" {
		t.Fatalf("fallback body %q is not a full answer (err %v)", ask.buf.Bytes(), err)
	}
	snap := m.Registry.Snapshot()
	if got := snap.Counters["fisql_sse_noflush_total"]; got != 1 {
		t.Errorf("fisql_sse_noflush_total = %d, want 1", got)
	}

	// The fanout endpoint refuses outright: a subscription that cannot
	// stream is useless, so it answers 406 rather than pretending.
	events := newNoFlushWriter()
	req = httptest.NewRequest(http.MethodGet, "/v1/sessions/"+created.SessionID+"/events", nil)
	srv.ServeHTTP(events, req)
	if events.code != http.StatusNotAcceptable {
		t.Errorf("/events without Flusher: status %d, want 406", events.code)
	}
	if got := m.Registry.Snapshot().Counters["fisql_sse_noflush_total"]; got != 2 {
		t.Errorf("fisql_sse_noflush_total after /events = %d, want 2", got)
	}
}

// errAfterWriter fails every write after the first n bytes succeed —
// simulating a client that disconnected mid-stream.
type errAfterWriter struct {
	noFlushWriter
	fail bool
}

func (w *errAfterWriter) Write(b []byte) (int, error) {
	if w.fail {
		return 0, errors.New("broken pipe")
	}
	return w.noFlushWriter.Write(b)
}

// TestJSONEventErrorStates pins the two distinct terminal states of an SSE
// stream: a marshal failure (encoding bug, client still connected) emits a
// terminal error event and suppresses everything after it; a write failure
// (client gone) suppresses silently without attempting further writes.
func TestJSONEventErrorStates(t *testing.T) {
	// Marshal failure: the client must see a terminal error event.
	w := newNoFlushWriter()
	st := &sseStream{w: w}
	st.jsonEvent("result", func() {}) // func values cannot marshal
	if !st.errored || st.failed {
		t.Fatalf("marshal failure: errored=%v failed=%v, want errored only", st.errored, st.failed)
	}
	st.event("done", []byte("{}")) // must be suppressed after the terminal error
	events := parseSSE(t, w.buf.Bytes())
	if len(events) != 1 || events[0].name != "error" ||
		!strings.Contains(events[0].data, "encode result event") {
		t.Fatalf("marshal failure produced %+v, want a single terminal error event", events)
	}

	// Write failure: the client is gone; nothing further is written, and no
	// error event is fabricated into the void.
	ew := &errAfterWriter{noFlushWriter: *newNoFlushWriter()}
	st2 := &sseStream{w: ew}
	st2.event("open", []byte("{}"))
	ew.fail = true
	st2.jsonEvent("sql", sqlEvent{SQL: "SELECT 1"})
	if !st2.failed || st2.errored {
		t.Fatalf("write failure: failed=%v errored=%v, want failed only", st2.failed, st2.errored)
	}
	before := ew.buf.Len()
	st2.jsonEvent("done", map[string]string{})
	if ew.buf.Len() != before {
		t.Fatal("events were written after the stream failed")
	}
	events = parseSSE(t, ew.buf.Bytes())
	if len(events) != 1 || events[0].name != "open" {
		t.Fatalf("dead stream carries %+v, want only the open event", events)
	}
}

// followEvents subscribes from the start of the session's topic and reads
// frames until the stream ends. It reports the subscription's outcome on
// attached as soon as the response headers arrive (the server subscribes
// to the topic before it sends them) and counts frames in read, so a test
// can tell a stream that never attached from one that stopped mid-way. It
// never calls t: it runs on its own goroutine.
func followEvents(ctx context.Context, ts *httptest.Server, sid string, attached chan<- error, read *atomic.Int64) ([]sseEvent, error) {
	resp, err := openEvents(ctx, ts, sid)
	attached <- err
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []sseEvent
	r := bufio.NewReader(resp.Body)
	for {
		ev, err := readFrame(r)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("read frame %d: %w", len(out), err)
		}
		out = append(out, ev)
		read.Add(1)
	}
}

// openEvents opens the fanout stream from its first event.
func openEvents(ctx context.Context, ts *httptest.Server, sid string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sessions/"+sid+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d body %s", resp.StatusCode, body)
	}
	return resp, nil
}

// TestEventsConcurrentFanout hammers one session with concurrent
// subscribers (attaching at staggered times), a writer driving turns, and
// subscriber churn, under -race: every subscriber's view must be gap-free
// and byte-identical to every other's over the common sequence range.
//
// Every subscriber must be attached before the session is deleted: one
// whose request lands after the delete gets a 404 instead of the stream.
// On a loaded machine a late subscriber goroutine did exactly that, and the
// test then waited forever for its result. Both waits now have a deadline
// and fail with each subscriber's progress.
func TestEventsConcurrentFanout(t *testing.T) {
	ts := fanoutServer(t, WithPubSubRing(4096))
	f := factory(t)
	sid := newTestSession(t, ts)
	// Cancelling the streams on exit (cleanups run last-registered first)
	// lets a failed run close the server instead of waiting on them.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	const subscribers = 6
	type outcome struct {
		i      int
		events []sseEvent
		err    error
	}
	attached := make(chan error, subscribers)
	results := make(chan outcome, subscribers)
	var read [subscribers]atomic.Int64
	for i := 0; i < subscribers; i++ {
		go func(i int) {
			events, err := followEvents(ctx, ts, sid, attached, &read[i])
			results <- outcome{i, events, err}
		}(i)
		if i == subscribers/2 {
			// Stagger: half the subscribers attach mid-run and replay.
			askPlain(t, ts, sid, f.ds.Examples[0].Question)
		}
	}
	n := 8
	if len(f.ds.Examples) < n {
		n = len(f.ds.Examples)
	}
	for _, e := range f.ds.Examples[1:n] {
		askPlain(t, ts, sid, e.Question)
	}
	sendFeedback(t, ts, sid, "use a left join instead")

	deadline := time.NewTimer(time.Minute)
	defer deadline.Stop()
	progress := func() string {
		var b strings.Builder
		for i := range read {
			fmt.Fprintf(&b, " subscriber %d read %d events;", i, read[i].Load())
		}
		return b.String()
	}
	for k := 0; k < subscribers; k++ {
		select {
		case err := <-attached:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline.C:
			t.Fatalf("only %d of %d subscribers attached within a minute:%s", k, subscribers, progress())
		}
	}
	deleteSession(t, ts, sid)

	views := make([][]sseEvent, subscribers)
	for k := 0; k < subscribers; k++ {
		select {
		case o := <-results:
			if o.err != nil {
				t.Fatalf("subscriber %d: %v", o.i, o.err)
			}
			views[o.i] = o.events
		case <-deadline.C:
			t.Fatalf("%d of %d streams still open a minute after the last turn (no delete event seen):%s",
				subscribers-k, subscribers, progress())
		}
	}

	reference := views[0]
	for i, got := range views {
		checkContiguous(t, got, 1, fmt.Sprintf("subscriber %d", i))
		if len(got) == 0 || got[len(got)-1].name != "delete" {
			t.Fatalf("subscriber %d did not end with delete: %+v", i, got)
		}
		if len(got) != len(reference) {
			t.Fatalf("subscriber %d saw %d events, subscriber 0 saw %d", i, len(got), len(reference))
		}
		for j := range got {
			if got[j] != reference[j] {
				t.Fatalf("subscriber %d event %d differs: %+v vs %+v", i, j, got[j], reference[j])
			}
		}
	}
}

// TestEventsRecoveryReseedsSequences: after a crash and journal replay, a
// subscriber replaying from 0 sees byte-identical events under identical
// sequence numbers — the invariant that makes Last-Event-ID resumption
// safe across restarts and failover promotions.
func TestEventsRecoveryReseedsSequences(t *testing.T) {
	f := factory(t)
	path := filepath.Join(t.TempDir(), "sessions.journal")
	j, err := persist.Open(path, persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": f},
		WithJournal(j), WithPubSubRing(4096)))
	sid := newTestSession(t, ts)
	askPlain(t, ts, sid, "how many users are there")
	sendFeedback(t, ts, sid, "only active users")
	askPlain(t, ts, sid, "list all users")

	resp, r := subscribe(t, ts, sid, 0)
	before := collectN(t, r, 1+4+5+4)
	resp.Body.Close()
	ts.Close()
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}

	j2, err := persist.Open(path, persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	ts2 := httptest.NewServer(New(map[string]SessionFactory{"aep": f},
		WithJournal(j2), WithPubSubRing(4096)))
	defer ts2.Close()
	resp2, r2 := subscribe(t, ts2, sid, 0)
	after := collectN(t, r2, len(before))
	resp2.Body.Close()

	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("event %d differs across recovery:\nbefore: %+v\nafter:  %+v",
				i, before[i], after[i])
		}
	}

	// And a mid-sequence resume against the recovered server continues
	// exactly where the pre-crash subscriber left off.
	last, _ := strconv.ParseUint(before[5].id, 10, 64)
	resp3, r3 := subscribe(t, ts2, sid, last)
	tail := collectN(t, r3, len(before)-6)
	resp3.Body.Close()
	for i, ev := range tail {
		if ev != before[6+i] {
			t.Fatalf("resumed event %d differs: %+v vs %+v", i, ev, before[6+i])
		}
	}
}

// TestEventsHandoffEndsWithoutDelete: a session released to another node
// (cluster rebalance) ends its local stream with no delete event — the
// session moved, it did not end.
func TestEventsHandoffEndsWithoutDelete(t *testing.T) {
	f := factory(t)
	srv := New(map[string]SessionFactory{"aep": f})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sid := newTestSession(t, ts)
	askPlain(t, ts, sid, "how many users are there")

	resp, r := subscribe(t, ts, sid, 0)
	defer resp.Body.Close()
	done := make(chan []sseEvent, 1)
	go func() { done <- collectUntilEOF(t, r) }()
	if !srv.ReleaseSession(sid, "node-b") {
		t.Fatal("ReleaseSession returned false")
	}
	select {
	case events := <-done:
		for _, ev := range events {
			if ev.name == "delete" {
				t.Fatalf("handoff published a delete event: %+v", events)
			}
		}
		if len(events) != 5 {
			t.Fatalf("handoff stream has %d events, want the 5 published ones", len(events))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end on handoff")
	}
}

// TestEventsSlowSubscriberDoesNotBlockAsks: a subscriber that never reads
// must not slow the ask path — the hub publish is non-blocking and the
// stalled reader's connection buffer is not the server's problem.
func TestEventsSlowSubscriberDoesNotBlockAsks(t *testing.T) {
	ts := fanoutServer(t, WithPubSubRing(8))
	f := factory(t)
	sid := newTestSession(t, ts)

	// Open a subscription and never read from it.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/"+sid+"/events", nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	n := 6
	if len(f.ds.Examples) < n {
		n = len(f.ds.Examples)
	}
	start := time.Now()
	for _, e := range f.ds.Examples[:n] {
		askPlain(t, ts, sid, e.Question)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("asks took %v with a stalled subscriber attached", elapsed)
	}
	deleteSession(t, ts, sid)
}
