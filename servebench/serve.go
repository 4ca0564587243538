package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fisql"
	"fisql/internal/assistant"
	"fisql/internal/core"
	"fisql/internal/engine"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/server"
)

// numClients is the number of closed-loop clients, each on its own
// connection: one per CPU of the two-CPU machine the bounds were set on.
const numClients = 2

// factory is the server's session factory over one System, as the server
// command adapts it, plus what the benchmark needs around it: swapping in a
// fresh answer memo and plan cache between correction passes, and wrapping
// each session's corrector in the traced run.
type factory struct {
	mu     sync.Mutex
	sys    *fisql.System
	traced bool
}

func (f *factory) NewSession(db string) *core.Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.sys.Session(db, sessionOptions)
	if f.traced {
		s.Corrector = timedCorrector{s.Corrector}
	}
	return s
}

func (f *factory) Databases() []string { return f.sys.Databases() }

// resetCaches gives sessions created from now on an empty answer memo and
// plan cache, and returns them.
func (f *factory) resetCaches() (*assistant.AnswerMemo, *engine.Cache) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sys.Memo = assistant.NewAnswerMemo(0)
	f.sys.Cache = engine.NewCache(0)
	return f.sys.Memo, f.sys.Cache
}

func (f *factory) memo() *assistant.AnswerMemo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sys.Memo
}

func (f *factory) cache() *engine.Cache {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sys.Cache
}

// stack is one server under test: the System, its journal and the server
// (the set-up the benchmark times), served on a loopback listener.
type stack struct {
	fac     *factory
	journal *persist.Journal
	metrics *obs.Metrics // nil in the traced run
	srv     *server.Server
	tracer  *tracer // nil in the untraced run

	hs     *http.Server
	base   string
	served chan error
}

// newServer opens a journal at path and builds the server over sys the
// way the server command does by default (metrics on, journal with
// interval fsync and default compaction). The traced run builds it without
// metrics, so the trace the benchmark attaches to each request is the one
// the pipeline records into.
func newServer(sys *fisql.System, path string, tr *tracer) (*stack, error) {
	j, err := persist.Open(path, persist.Options{
		Fsync:           persist.FsyncInterval,
		CompactMinBytes: persist.DefaultCompactMinBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	st := &stack{fac: &factory{sys: sys, traced: tr != nil}, journal: j, tracer: tr}
	opts := []server.Option{
		server.WithMaxSessions(server.DefaultMaxSessions),
		server.WithMaxBodyBytes(server.DefaultMaxBodyBytes),
		server.WithJournal(j),
	}
	if tr == nil {
		st.metrics = obs.NewMetrics()
		sys.Observe(st.metrics.Registry)
		opts = append(opts, server.WithMetrics(st.metrics))
	}
	st.srv = server.New(map[string]server.SessionFactory{"aep": st.fac}, opts...)
	return st, nil
}

// listen starts serving the stack on a loopback port.
func (st *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = st.srv
	if st.tracer != nil {
		h = st.tracer.wrap(st.srv)
	}
	st.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.base = "http://" + ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	return nil
}

// close stops the HTTP server, waits for it to return, and closes the
// journal.
func (st *stack) close() error {
	var errs []error
	if st.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs = append(errs, st.hs.Shutdown(ctx))
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, st.journal.Close())
	return errors.Join(errs...)
}

// client is one closed-loop user on its own connection.
type client struct {
	id     int
	base   string
	hc     *http.Client
	tracer *tracer
	seq    int64
}

func newClient(id int, st *stack) *client {
	tp := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{id: id, base: st.base, hc: &http.Client{Transport: tp}, tracer: st.tracer}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// exchange is one request as the client saw it.
type exchange struct {
	code int
	body []byte
	rtt  time.Duration // request sent to response body read
	rq   *reqTrace     // server-side record, in the traced run
}

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (exchange, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return exchange{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tracer != nil {
		c.seq++
		req.Header.Set(clientHeader, strconv.Itoa(c.id))
		req.Header.Set(seqHeader, strconv.FormatInt(c.seq, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return exchange{}, err
	}
	b, err := io.ReadAll(resp.Body)
	rtt := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return exchange{}, fmt.Errorf("read %s %s: %w", method, path, err)
	}
	ex := exchange{code: resp.StatusCode, body: b, rtt: rtt}
	if c.tracer != nil {
		if ex.rq, err = c.tracer.await(c.id, c.seq); err != nil {
			return exchange{}, err
		}
	}
	return ex, nil
}
