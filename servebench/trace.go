package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fisql/internal/core"
	"fisql/internal/feedback"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/server"
)

// Headers pairing a client's request with the server-side record of it.
const (
	clientHeader = "X-Bench-Client"
	seqHeader    = "X-Bench-Seq"
)

// maxPrompts is how many prompt sizes a turn records: a turn calls the
// model once to generate or twice to correct (route, repair).
const maxPrompts = 4

// layerTimes is what the traced run keeps of one turn's server side. It
// holds no pointers, so the records can live off the heap.
type layerTimes struct {
	handler time.Duration
	stages  [obs.NumStages]time.Duration
	// correct is the time inside Corrector.Correct, and correctStages the
	// part of it the pipeline's own stage spans cover.
	correct, correctStages time.Duration
	llmCalls               int32
	prompts                [maxPrompts]int32 // sizes of the first prompts, in bytes
}

// reqTrace is the server-side record of one request in the traced run.
// Everything in it is written on the request's goroutine: the pipeline
// runs on the handler's goroutine when no LLM batcher is configured.
type reqTrace struct {
	seq int64
	tr  obs.Trace
	layerTimes
}

// times returns the request's layer times with the trace's stages.
func (rq *reqTrace) times() layerTimes {
	lt := rq.layerTimes
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		lt.stages[s] = rq.tr.Dur(s)
	}
	return lt
}

// stageSum is the time a trace attributes to all pipeline stages.
func stageSum(tr *obs.Trace) time.Duration {
	var d time.Duration
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		d += tr.Dur(s)
	}
	return d
}

type reqKey struct{}

func reqFrom(ctx context.Context) *reqTrace {
	rq, _ := ctx.Value(reqKey{}).(*reqTrace)
	return rq
}

// tracer records spans around the calls into each layer from outside the
// program: the HTTP handler, the LLM client, the corrector, the retrieval
// store's search observer and the journal's fsync observer.
type tracer struct {
	slots [numClients]chan *reqTrace
	llm   *timedClient

	// searches and fsyncs live off the heap, like the clients' records.
	mu       sync.Mutex
	searches samples
	fsyncs   samples
	free     func()
}

func newTracer() (*tracer, error) {
	t := &tracer{}
	for i := range t.slots {
		// Each client has one request in flight; the spare room absorbs a
		// record whose client gave up on the response.
		t.slots[i] = make(chan *reqTrace, 4)
	}
	searches, freeSearches, err := offHeap[time.Duration](2 * maxTurns)
	if err != nil {
		return nil, err
	}
	fsyncs, freeFsyncs, err := offHeap[time.Duration](maxSessions)
	if err != nil {
		freeSearches()
		return nil, err
	}
	t.searches, t.fsyncs = searches, fsyncs
	t.free = func() { freeSearches(); freeFsyncs() }
	return t, nil
}

// reset forgets the searches and fsyncs observed so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.searches, t.fsyncs = t.searches[:0], t.fsyncs[:0]
	t.mu.Unlock()
}

func (t *tracer) observeSearch(d time.Duration) {
	t.mu.Lock()
	t.searches = append(t.searches, d)
	t.mu.Unlock()
}

func (t *tracer) observeFsync(d time.Duration) {
	t.mu.Lock()
	t.fsyncs = append(t.fsyncs, d)
	t.mu.Unlock()
}

// wrap times srv's handling of each request under a fresh obs.Trace, which
// the pipeline's stages record into, and hands the record to the client
// that sent the request.
func (t *tracer) wrap(srv *server.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := strconv.Atoi(r.Header.Get(clientHeader))
		if err != nil || c < 0 || c >= numClients {
			http.Error(w, "missing "+clientHeader, http.StatusBadRequest)
			return
		}
		rq := &reqTrace{}
		rq.seq, _ = strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		ctx := context.WithValue(obs.WithTrace(r.Context(), &rq.tr), reqKey{}, rq)
		r = r.WithContext(ctx)
		t0 := time.Now()
		srv.ServeHTTP(w, r)
		rq.handler = time.Since(t0)
		select {
		case t.slots[c] <- rq:
		default:
		}
	})
}

// await returns the server-side record of the client's request seq.
func (t *tracer) await(c int, seq int64) (*reqTrace, error) {
	timeout := time.After(10 * time.Second)
	for {
		select {
		case rq := <-t.slots[c]:
			if rq.seq == seq {
				return rq, nil
			}
		case <-timeout:
			return nil, fmt.Errorf("no server-side record of client %d request %d", c, seq)
		}
	}
}

// timedClient counts the calls into the model and the size of each prompt.
type timedClient struct {
	inner llm.Client
	calls atomic.Int64
}

func (c *timedClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	c.calls.Add(1)
	if rq := reqFrom(ctx); rq != nil {
		if rq.llmCalls < maxPrompts {
			rq.prompts[rq.llmCalls] = int32(len(req.Prompt))
		}
		rq.llmCalls++
	}
	return c.inner.Complete(ctx, req)
}

// timedCorrector times FISQL.Correct and the part of it the stage spans
// cover; the rest is the core layer's own time.
type timedCorrector struct{ inner core.Corrector }

func (c timedCorrector) Name() string { return c.inner.Name() }

func (c timedCorrector) Correct(ctx context.Context, db, question, prevSQL string, fb feedback.Feedback) (string, error) {
	rq := reqFrom(ctx)
	if rq == nil {
		return c.inner.Correct(ctx, db, question, prevSQL, fb)
	}
	before := stageSum(&rq.tr)
	t0 := time.Now()
	sql, err := c.inner.Correct(ctx, db, question, prevSQL, fb)
	rq.correct += time.Since(t0)
	rq.correctStages += stageSum(&rq.tr) - before
	return sql, err
}
