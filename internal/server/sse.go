// Server-sent-events streaming for POST /v1/sessions/{id}/ask.
//
// A client that sends "Accept: text/event-stream" receives the answer
// stage-by-stage as the pipeline produces it, instead of one JSON body at
// the end:
//
//	event: open          data: {}
//	event: sql           data: {"sql": ...}
//	event: explanation   data: {"reformulation": ..., "explanation": [...], "spans": [...]}
//	event: result        data: {"columns": [...], "rows": [...]} | {"error": ...}
//	event: done          data: <the complete answer JSON>
//
// The done payload is the exact byte sequence a non-streaming ask would
// have received as its response body (minus the body's trailing newline,
// which SSE framing cannot carry) — rendered once and shared through the
// same wire cache, so the two forms can never drift. Stage events stream
// live while the pipeline computes; when a memoized Answer (or a
// singleflight share) skips the pipeline, the missing stages are
// synthesized from the finished Answer before done, so the event sequence
// is always complete: open, sql, explanation, result, done. The open event
// commits the stream before the pipeline runs, so once a client has opted
// into SSE, every outcome — including a generation failure that fires no
// stage at all — arrives as a well-formed event stream.
//
// A pipeline or journal failure after the stream has started is delivered
// as a terminal "error" event ({"error": ...}); the session and journal are
// left exactly as a failed non-streaming ask would leave them (no history
// turn, no journal record — or, on a journal append failure, the session
// evicted). The ask is journaled exactly once, at the same point as the
// non-streaming path: after pipeline success, before done.
//
// Every payload is a single line (JSON escaping keeps newlines out), so
// each event is one "data:" line and reconstruction is trivial.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"fisql/internal/assistant"
	"fisql/internal/engine"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/sqlast"
)

// wantsSSE reports whether the request opted into streaming.
func wantsSSE(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		if containsToken(accept, "text/event-stream") {
			return true
		}
	}
	return false
}

// containsToken reports whether the comma-separated header value lists the
// media type (parameters after ';' ignored). The comparison folds ASCII
// case: RFC 9110 media types are case-insensitive, so "Text/Event-Stream"
// must opt in exactly as "text/event-stream" does.
func containsToken(header, token string) bool {
	for header != "" {
		var item string
		item, header, _ = strings.Cut(header, ",")
		item, _, _ = strings.Cut(item, ";")
		if strings.EqualFold(strings.Trim(item, " \t"), token) {
			return true
		}
	}
	return false
}

// startSSE commits the status and headers of an event-stream response.
func startSSE(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
}

// writeSSE frames one event (id omitted when seq is 0) and reports whether
// the write succeeded. data must be newline-free: every payload is
// single-line JSON.
func writeSSE(w http.ResponseWriter, seq uint64, name string, data []byte) bool {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if seq > 0 {
		buf.WriteString("id: ")
		buf.WriteString(strconv.FormatUint(seq, 10))
		buf.WriteByte('\n')
	}
	buf.WriteString("event: ")
	buf.WriteString(name)
	buf.WriteString("\ndata: ")
	buf.Write(data)
	buf.WriteString("\n\n")
	_, err := w.Write(buf.Bytes())
	bufPool.Put(buf)
	return err == nil
}

// Stage payload wire forms. resultJSON doubles as the error carrier to
// match the answer body ({"error": ...} when execution failed).
type sqlEvent struct {
	SQL string `json:"sql"`
}

type explanationEvent struct {
	Reformulation string     `json:"reformulation"`
	Explanation   []string   `json:"explanation"`
	Spans         []spanJSON `json:"spans,omitempty"`
}

type resultEvent struct {
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Error   string     `json:"error,omitempty"`
}

// sseStream writes one SSE response and implements assistant.Stream so the
// pipeline can push stages as they complete. It is used from the handler
// goroutine only (the pipeline runs synchronously under the session lock).
type sseStream struct {
	w http.ResponseWriter
	f http.Flusher

	started bool // response headers committed
	// failed and errored both end the stream, for opposite reasons. failed
	// means a write error: the client is gone, nothing further can be
	// delivered, so every later write is suppressed silently. errored means
	// an encoding bug: the client is still listening, so it was sent a
	// terminal "error" event and must not receive further events after it —
	// a truncated stream that announces itself, never one that looks
	// well-formed.
	failed  bool
	errored bool
	sentSQL bool
	sentExp bool
	sentRes bool
}

// dead reports that the stream can emit no more events.
func (st *sseStream) dead() bool { return st.failed || st.errored }

// event frames and flushes one SSE event, with seq as the SSE id line when
// non-zero (eventID). data must be newline-free (every caller passes a
// single-line JSON encoding).
func (st *sseStream) event(name string, data []byte) { st.eventID(name, data, 0) }

func (st *sseStream) eventID(name string, data []byte, seq uint64) {
	if st.dead() {
		return
	}
	if !st.started {
		startSSE(st.w)
		st.started = true
	}
	if !writeSSE(st.w, seq, name, data) {
		st.failed = true
	}
	if st.f != nil && !st.failed {
		st.f.Flush()
	}
}

// jsonEvent marshals v and emits it. Marshal of these fixed shapes cannot
// fail in practice — but if it ever does, that is an encoding bug, not a
// client disconnect: the client gets a terminal error event (and nothing
// after it) instead of a silently truncated stream.
func (st *sseStream) jsonEvent(name string, v any) {
	if st.dead() {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		st.event("error", mustErrorJSON("encode "+name+" event: "+err.Error()))
		st.errored = true
		return
	}
	st.event(name, data)
}

// mustErrorJSON renders {"error": msg}; a map[string]string cannot fail to
// marshal.
func mustErrorJSON(msg string) []byte {
	data, _ := json.Marshal(map[string]string{"error": msg})
	return data
}

// OnSQL implements assistant.Stream.
func (st *sseStream) OnSQL(sql string) {
	st.sentSQL = true
	st.jsonEvent("sql", sqlEvent{SQL: sql})
}

// OnExplanation implements assistant.Stream.
func (st *sseStream) OnExplanation(reformulation string, explanation []string, spans []sqlast.Span) {
	st.sentExp = true
	st.jsonEvent("explanation", explanationEvent{
		Reformulation: reformulation,
		Explanation:   explanation,
		Spans:         spansToJSON(spans),
	})
}

// OnResult implements assistant.Stream.
func (st *sseStream) OnResult(res *engine.Result, execErr error) {
	st.sentRes = true
	ev := resultEvent{}
	if execErr != nil {
		ev.Error = execErr.Error()
	} else if res != nil {
		ev.Columns, ev.Rows = resultToJSON(res)
	}
	st.jsonEvent("result", ev)
}

// fail terminates the stream: an "error" event if the response has
// started, a regular JSON error response otherwise.
func (st *sseStream) fail(code int, msg string) {
	if st.started {
		st.jsonEvent("error", map[string]string{"error": msg})
		return
	}
	httpError(st.w, code, msg)
}

// synthesize emits any stage event the live pipeline skipped (memo hit,
// singleflight share), in pipeline order, from the finished Answer.
func (st *sseStream) synthesize(ans *assistant.Answer) {
	if !st.sentSQL {
		st.OnSQL(ans.SQL)
	}
	if !st.sentExp {
		st.OnExplanation(ans.Reformulation, ans.Explanation, ans.Spans)
	}
	if !st.sentRes {
		st.OnResult(ans.Result, ans.ExecErr)
	}
}

// streamAsk is handleAsk's streaming tail: the caller has validated the
// request, verified the connection can actually stream (fl is the real
// Flusher behind w — see flusherOf), acquired admission and the session
// lock, and built the traced context. The ask is journaled at the same
// point as the non-streaming path.
func (s *Server) streamAsk(ctx context.Context, w http.ResponseWriter, fl http.Flusher,
	tr *obs.Trace, sess *session, question string) {
	st := &sseStream{w: w, f: fl}
	// Commit the stream before the pipeline runs: from here every outcome —
	// including failure — is delivered as events, so the client always
	// parses one well-formed stream.
	st.event("open", []byte("{}"))
	ans, err := sess.sess.Ask(assistant.WithStream(ctx, st), question)
	if err != nil {
		st.fail(http.StatusInternalServerError, err.Error())
		return
	}
	if err := s.journalAppend(persist.Record{
		Type: persist.TAsk, Session: sess.id, Text: question,
	}); err != nil {
		if !isReplicationError(err) {
			s.dropDiverged(sess)
		}
		st.fail(http.StatusInternalServerError, "journal: "+err.Error())
		return
	}
	body, err := s.renderAnswer(tr, ans)
	if err != nil {
		st.fail(http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	// Acknowledged: fan the turn out to /events subscribers as one atomic
	// batch. The private stream's stage events above were live
	// (pre-acknowledgment, so they carry no sequence number); the done event
	// carries the turn's fanout sequence number, letting this client hand
	// off to a resumable /events subscription without a gap.
	seq := s.publishAnswer(sess.id, nil, ans, body)
	st.synthesize(ans)
	// The rendered body is "{...}\n"; SSE data cannot frame the trailing
	// newline, so done carries the line itself — append '\n' to recover the
	// exact non-streamed body.
	st.eventID("done", body[:len(body)-1], seq)
	s.sseStreams.Inc()
}
