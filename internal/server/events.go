// Session-event fanout: GET /v1/sessions/{id}/events.
//
// Every session carries a pubsub topic (internal/pubsub) to which the
// server publishes its lifecycle events — open, then per acknowledged turn
// sql/explanation/result/done (plus feedback for a feedback turn), then
// delete — at exactly the points it journals them. Publishing only
// acknowledged turns makes the event stream a pure function of the
// journaled history: crash recovery and cluster failover promotion replay
// the journal through the same publish calls, rebuilding each topic with
// the same payloads under the same sequence numbers, so a subscriber that
// resumes against a rebuilt owner never sees a sequence regress or a
// duplicate turn.
//
// The endpoint is a long-lived SSE stream. Each event carries its topic
// sequence number as the SSE id line:
//
//	id: 7
//	event: done
//	data: {...}
//
// A reconnecting client sends Last-Event-ID: 7 (the standard EventSource
// behavior; ?from=7 works for plain HTTP clients) and receives 8, 9, ...
// — replayed from the ring when still retained. When the resume point has
// left the ring, or a slow reader was lapped while connected, the gap is
// announced as an un-sequenced "dropped" event ({"missed": N}) before the
// next delivered event; the client's view is then explicitly — never
// silently — incomplete, and it can re-fetch /history to resynchronize.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"fisql/internal/assistant"
	"fisql/internal/pubsub"
)

// subscriberLagBounds bucket the fanout lag histogram by events still
// buffered after a delivery (the histogram's "seconds" axis carries event
// counts for this metric).
var subscriberLagBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// openPayload announces the session's coordinates as its first event.
func openPayload(id, corpus, db string) pubsub.Payload {
	data, _ := json.Marshal(map[string]string{"session_id": id, "corpus": corpus, "db": db})
	return pubsub.Payload{Type: "open", Data: data}
}

// deletePayload is the terminal event of an ended (not moved) session.
func deletePayload(id string) pubsub.Payload {
	data, _ := json.Marshal(map[string]string{"session_id": id})
	return pubsub.Payload{Type: "delete", Data: data}
}

// feedbackEvent mirrors the journaled feedback record: the resolved
// highlight offset (or -1), not the client's raw request, so the replayed
// payload is byte-identical to the live one.
type feedbackEvent struct {
	Text           string `json:"text"`
	Highlight      string `json:"highlight,omitempty"`
	HighlightStart int    `json:"highlight_start"`
}

func feedbackPayload(text, highlight string, start int) pubsub.Payload {
	data, _ := json.Marshal(feedbackEvent{Text: text, Highlight: highlight, HighlightStart: start})
	return pubsub.Payload{Type: "feedback", Data: data}
}

// answerPayloads renders one acknowledged turn as its fanout events. body
// is the turn's rendered wire body (renderAnswer), whose line — the body
// minus its trailing newline — becomes the done payload, byte-identical to
// the SSE done event and (plus '\n') to the plain response body. The stage
// payloads marshal through the same wire structs as the /ask SSE stream.
func answerPayloads(ans *assistant.Answer, body []byte) []pubsub.Payload {
	sqlData, _ := json.Marshal(sqlEvent{SQL: ans.SQL})
	expData, _ := json.Marshal(explanationEvent{
		Reformulation: ans.Reformulation,
		Explanation:   ans.Explanation,
		Spans:         spansToJSON(ans.Spans),
	})
	res := resultEvent{}
	if ans.ExecErr != nil {
		res.Error = ans.ExecErr.Error()
	} else if ans.Result != nil {
		res.Columns, res.Rows = resultToJSON(ans.Result)
	}
	resData, _ := json.Marshal(res)
	return []pubsub.Payload{
		{Type: "sql", Data: sqlData},
		{Type: "explanation", Data: expData},
		{Type: "result", Data: resData},
		{Type: "done", Data: body[:len(body)-1]},
	}
}

// publishAnswer publishes one acknowledged turn (optionally prefixed by its
// feedback event) to the session's topic as a single atomic batch, so a
// concurrent delete event can never interleave into the middle of a turn.
// Returns the sequence number of the done event (0 when the topic is gone —
// the session was deleted while the turn was in flight).
func (s *Server) publishAnswer(id string, fb *pubsub.Payload, ans *assistant.Answer, body []byte) uint64 {
	payloads := answerPayloads(ans, body)
	if fb != nil {
		payloads = append([]pubsub.Payload{*fb}, payloads...)
	}
	return s.hub.Publish(id, payloads...)
}

// flusherOf finds the http.Flusher behind w, walking Unwrap chains (the
// statusWriter wrapper, http.ResponseController-style middleware). Returns
// nil when the connection cannot stream — the caller must then fall back to
// a buffered response instead of fake-streaming into a burst.
func flusherOf(w http.ResponseWriter) http.Flusher {
	for {
		switch v := w.(type) {
		case http.Flusher:
			return v
		case interface{ Unwrap() http.ResponseWriter }:
			w = v.Unwrap()
		default:
			return nil
		}
	}
}

// lastEventID parses the subscriber's resume position: the standard
// Last-Event-ID header (set automatically by EventSource on reconnect), or
// ?from= for clients that cannot set headers. Absent means 0 — subscribe
// from the oldest retained event.
func lastEventID(r *http.Request) (uint64, error) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("from")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad Last-Event-ID %q: not a sequence number", v)
	}
	return n, nil
}

// handleEvents is the long-lived fanout subscription. It holds no session
// lock and no admission slot: subscribers read from the topic ring at their
// own pace and, by the hub's non-blocking publish contract, can never slow
// an ask down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Existence probe without LRU promotion: following a session is not
	// using it, so a watch must not keep an idle session alive.
	if !s.store.has(id) {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	fl := flusherOf(w)
	if fl == nil {
		s.sseNoFlush.Inc()
		httpError(w, http.StatusNotAcceptable, "event subscription requires a connection that supports streaming")
		return
	}
	after, err := lastEventID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sub, err := s.hub.Subscribe(id, after)
	if err != nil {
		// The session vanished between the store probe and the subscribe.
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	defer sub.Cancel()
	startSSE(w)
	fl.Flush()
	ctx := r.Context()
	for {
		ev, missed, ok := sub.Next(ctx)
		if !ok {
			// Topic closed (session deleted or handed off) or client gone.
			// The stream just ends; a client that still wants the session
			// reconnects with its last id and gets 404 if it truly ended.
			return
		}
		if missed > 0 {
			// The gap marker carries no id: it is not part of the sequence,
			// and a reconnect must resume from the last real event.
			if !writeSSE(w, 0, "dropped", []byte(fmt.Sprintf(`{"missed":%d}`, missed))) {
				return
			}
		}
		if !writeSSE(w, ev.Seq, ev.Type, ev.Data) {
			return
		}
		fl.Flush()
	}
}
