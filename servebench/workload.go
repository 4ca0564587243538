package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fisql/internal/assistant"
	"fisql/internal/engine"
)

// zipfS is the skew of memo-hot's question popularity.
const zipfS = 1.1

// run is one timed run as the clients saw it.
type run struct {
	asks, feedbacks, sessions samples
	turns                     []turnRecord // traced run only
	attempted, failed         int64
	failures                  []string
	elapsed                   time.Duration

	// Cache statistics over the timed window. Correction passes each use
	// a fresh memo and plan cache, so these are sums over passes.
	memoHits, memoMisses   int64
	cacheHits, cacheMisses int64
	tallies                []tallies // one per correction pass
}

// turnRecord is one ask or feedback turn of the traced run.
type turnRecord struct {
	feedback, execErr bool
	turn              time.Duration // the client's whole turn: request, round trip, answer decoding
	rtt               time.Duration
	layerTimes
}

// Per-client room for the records of one timed run: a minute of memo-hot
// at twice the rate it runs at on two CPUs.
const (
	maxTurns    = 1 << 20
	maxSessions = 1 << 19
)

// records returns a record per client for a timed run, its samples held
// off the heap, and the function that frees them once merged.
func records(traced bool) (recs []*run, free func(), err error) {
	var frees []func()
	free = func() {
		for _, f := range frees {
			f()
		}
	}
	points := func(n int) samples {
		s, f, e := offHeap[time.Duration](n)
		if e != nil {
			err = e
			return nil
		}
		frees = append(frees, f)
		return s
	}
	for i := 0; i < numClients; i++ {
		r := &run{asks: points(maxTurns), feedbacks: points(maxTurns), sessions: points(maxSessions)}
		if traced && err == nil {
			var f func()
			if r.turns, f, err = offHeap[turnRecord](maxTurns); err == nil {
				frees = append(frees, f)
			}
		}
		recs = append(recs, r)
	}
	if err != nil {
		free()
		return nil, nil, err
	}
	return recs, free, nil
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds a client's record into r.
func (r *run) merge(o *run) {
	r.asks = append(r.asks, o.asks...)
	r.feedbacks = append(r.feedbacks, o.feedbacks...)
	r.sessions = append(r.sessions, o.sessions...)
	r.turns = append(r.turns, o.turns...)
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 10 {
			r.failures = append(r.failures, f)
		}
	}
}

func (r *run) turnCount() int { return len(r.asks) + len(r.feedbacks) }

// answerBody is the part of an answer the clients check.
type answerBody struct {
	SQL   string `json:"sql"`
	Error string `json:"error"`
}

// request sends one request that must answer 200 and returns its body.
func (c *client) request(r *run, method, path string, body []byte) ([]byte, bool) {
	r.attempted++
	ex, err := c.do(method, path, body)
	if err != nil {
		r.fail("%s %s: %v", method, path, err)
		return nil, false
	}
	if ex.code != 200 {
		r.fail("%s %s: status %d: %s", method, path, ex.code, bytes.TrimSpace(ex.body))
		return nil, false
	}
	return ex.body, true
}

// create opens a session on the aep corpus.
func (c *client) create(r *run) (string, bool) {
	b, ok := c.request(r, "POST", "/v1/sessions", []byte(`{"corpus":"aep"}`))
	if !ok {
		return "", false
	}
	var v struct {
		ID string `json:"session_id"`
	}
	if err := json.Unmarshal(b, &v); err != nil || v.ID == "" {
		r.fail("create: bad body %q", b)
		return "", false
	}
	return v.ID, true
}

func (c *client) remove(r *run, id string) {
	c.request(r, "DELETE", "/v1/sessions/"+id, nil)
}

// turn sends one scripted ask or feedback and checks the served SQL, and
// the whole body when want is not nil. It records the turn's latency only
// when the answer is correct.
func (c *client) turn(r *run, id string, t *turn, want []byte) ([]byte, bool) {
	path := "/v1/sessions/" + id + "/ask"
	if t.Feedback {
		path = "/v1/sessions/" + id + "/feedback"
	}
	t0 := time.Now()
	r.attempted++
	ex, err := c.do("POST", path, t.Body)
	if err != nil {
		r.fail("POST %s: %v", path, err)
		return nil, false
	}
	if ex.code != 200 {
		r.fail("POST %s: status %d: %s", path, ex.code, bytes.TrimSpace(ex.body))
		return nil, false
	}
	var a answerBody
	if err := json.Unmarshal(ex.body, &a); err != nil {
		r.fail("POST %s: bad answer: %v", path, err)
		return nil, false
	}
	d := time.Since(t0)
	if a.SQL != t.SQL {
		r.fail("%q: served SQL %q, reference %q", t.Text, a.SQL, t.SQL)
		return nil, false
	}
	if want != nil && !bytes.Equal(ex.body, want) {
		r.fail("%q: answer body differs from the warm-up's", t.Text)
		return nil, false
	}
	if t.Feedback {
		r.feedbacks = append(r.feedbacks, d)
	} else {
		r.asks = append(r.asks, d)
	}
	if ex.rq != nil {
		r.turns = append(r.turns, turnRecord{feedback: t.Feedback, execErr: a.Error != "",
			turn: d, rtt: ex.rtt, layerTimes: ex.rq.times()})
	}
	return ex.body, true
}

// checkHistory reads a session's history and checks it lists the turns
// sent, each followed by the SQL served for it.
func (c *client) checkHistory(r *run, id string, sent []*turn) {
	b, ok := c.request(r, "GET", "/v1/sessions/"+id+"/history", nil)
	if !ok {
		return
	}
	var h struct {
		Turns []struct {
			Role string `json:"role"`
			Text string `json:"text"`
		} `json:"turns"`
	}
	if err := json.Unmarshal(b, &h); err != nil || len(h.Turns) != 2*len(sent) {
		r.fail("history of %s: want %d turns, got %q", id, 2*len(sent), b)
		return
	}
	for i, t := range sent {
		if h.Turns[2*i].Text != t.Text || h.Turns[2*i+1].Text != t.SQL {
			r.fail("history of %s: turn %d differs", id, i)
			return
		}
	}
}

// clients starts one client per connection on st.
func clients(st *stack) []*client {
	cs := make([]*client, numClients)
	for i := range cs {
		cs[i] = newClient(i, st)
	}
	return cs
}

// parallel runs fn once per client, each with its own record.
func parallel(cs []*client, recs []*run, fn func(c *client, r *run)) {
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(c *client, rec *run) {
			defer wg.Done()
			fn(c, rec)
		}(c, recs[i])
	}
	wg.Wait()
}

// memoHot warms the answer memo with every corpus question, then has each
// client loop short sessions until the deadline: create, one to four asks
// of Zipf-popular questions, one history read, delete. Every timed answer
// must equal the warm-up's body for its question, and come from the memo.
func memoHot(st *stack, sc *script, seed int64, dur time.Duration, onStart func()) (*run, error) {
	r := &run{}
	cs := clients(st)
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	n := len(sc.Sessions)
	warm := make([][]byte, n)
	if id, ok := cs[0].create(r); ok {
		for i := range sc.Sessions {
			warm[i], _ = cs[0].turn(r, id, &sc.Sessions[i].Turns[0], nil)
		}
		cs[0].remove(r, id)
	}
	if r.failed > 0 {
		return r, nil
	}
	recs, free, err := records(st.tracer != nil)
	if err != nil {
		return nil, err
	}
	defer free()
	timed := &run{attempted: r.attempted}
	memo, cache := st.fac.memo(), st.fac.cache()
	popular := rand.New(rand.NewSource(seed)).Perm(n)
	onStart()
	h0, m0 := memo.Stats()
	ch0, cm0 := cache.Stats()
	start := time.Now()
	deadline := start.Add(dur)
	parallel(cs, recs, func(c *client, r *run) {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c.id) + 1))
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
		qs := make([]int, 0, 4)
		sent := make([]*turn, 0, 4)
		for time.Now().Before(deadline) {
			qs, sent = qs[:0], sent[:0]
			for k := 1 + rng.Intn(4); k > 0; k-- {
				q := popular[zipf.Uint64()]
				qs = append(qs, q)
				sent = append(sent, &sc.Sessions[q].Turns[0])
			}
			t0 := time.Now()
			id, ok := c.create(r)
			if !ok {
				continue
			}
			for i, q := range qs {
				if _, ok = c.turn(r, id, sent[i], warm[q]); !ok {
					break
				}
			}
			if ok {
				r.sessions = append(r.sessions, time.Since(t0))
				c.checkHistory(r, id, sent)
			}
			c.remove(r, id)
		}
	})
	timed.elapsed = time.Since(start)
	for _, rec := range recs {
		timed.merge(rec)
	}
	h1, m1 := memo.Stats()
	timed.memoHits, timed.memoMisses = h1-h0, m1-m0
	ch1, cm1 := cache.Stats()
	timed.cacheHits, timed.cacheMisses = ch1-ch0, cm1-cm0
	if timed.memoMisses != 0 || timed.memoHits != int64(len(timed.asks)) {
		timed.fail("self-check: %d timed asks, %d memo hits and %d misses; every ask must hit",
			len(timed.asks), timed.memoHits, timed.memoMisses)
	}
	return timed, nil
}

// correction plays the script's sessions pass after pass, starting no pass
// after the deadline, each pass in its own seeded order on a fresh answer
// memo and plan cache, the two clients taking the next session in turn.
// An untimed pass first fills the engine's per-database caches. Every ask
// must miss the memo, and every pass must reproduce the script's tallies.
func correction(st *stack, sc *script, dur time.Duration, onStart func()) (*run, error) {
	r := &run{}
	cs := clients(st)
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	warm := []*run{{}, {}}
	pass(st, cs, sc, sc.Order, warm, r)
	for _, w := range warm {
		r.merge(w)
	}
	if r.failed > 0 {
		return r, nil
	}
	recs, free, err := records(st.tracer != nil)
	if err != nil {
		return nil, err
	}
	defer free()
	timed := &run{attempted: r.attempted}
	onStart()
	start := time.Now()
	deadline := start.Add(dur)
	for p := 1; time.Now().Before(deadline); p++ {
		pass(st, cs, sc, passOrder(sc.Seed, p, len(sc.Sessions)), recs, timed)
	}
	timed.elapsed = time.Since(start)
	for _, rec := range recs {
		timed.merge(rec)
	}
	return timed, nil
}

// pass runs one pass over the script's sessions in the given order, the
// clients recording into recs, and adds the pass's cache statistics and
// tallies to r.
func pass(st *stack, cs []*client, sc *script, order []int, recs []*run, r *run) {
	memo, cache := st.fac.resetCaches()
	served := make([][]bool, len(sc.Sessions))
	var next atomic.Int64
	parallel(cs, recs, func(c *client, r *run) {
		for i := int(next.Add(1) - 1); i < len(order); i = int(next.Add(1) - 1) {
			served[order[i]] = c.playSession(r, &sc.Sessions[order[i]], memo)
		}
	})
	hits, misses := memo.Stats()
	r.memoHits += hits
	r.memoMisses += misses
	hits, misses = cache.Stats()
	r.cacheHits += hits
	r.cacheMisses += misses
	r.tallies = append(r.tallies, servedTallies(sc, served))
}

// playSession runs one scripted session and reports which turns were
// served correctly.
func (c *client) playSession(r *run, ss *scriptSession, memo *assistant.AnswerMemo) []bool {
	ok := make([]bool, len(ss.Turns))
	t0 := time.Now()
	id, created := c.create(r)
	if !created {
		return ok
	}
	for i := range ss.Turns {
		t := &ss.Turns[i]
		if !t.Feedback {
			if _, hit := memo.Get(ss.DB, t.Text); hit {
				r.fail("self-check: ask %q would be an answer-memo hit", t.Text)
				break
			}
		}
		if _, ok[i] = c.turn(r, id, t, nil); !ok[i] {
			break
		}
	}
	if ok[len(ok)-1] {
		r.sessions = append(r.sessions, time.Since(t0))
	}
	c.remove(r, id)
	return ok
}

// servedTallies counts the script's verdicts over the turns of one pass
// that were served as scripted.
func servedTallies(sc *script, served [][]bool) tallies {
	t := tallies{Examples: len(sc.Sessions)}
	for i, ss := range sc.Sessions {
		ok := served[i]
		if ok[0] && ss.FirstCorrect {
			t.FirstCorrect++
		}
		if len(ok) > 1 && ok[1] {
			t.Annotated++
			if ss.FixedAt == 1 {
				t.Round1Fixed++
			}
		}
	}
	return t
}

// columnarHits sums the engine's columnar-path executions over a corpus's
// databases.
func columnarHits(dbs map[string]*engine.Database) int64 {
	var n int64
	for _, db := range dbs {
		h, _ := db.ColumnarStats()
		n += h
	}
	return n
}
