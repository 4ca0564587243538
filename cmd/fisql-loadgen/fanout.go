package main

// The -fanout scenario: subscribe -fanout-subscribers readers to one
// session's /events stream and drive a turn workload at it, asserting the
// fanout contract end to end:
//
//   - every subscriber sees a gap-free sequence (contiguous SSE ids from
//     1) with no duplicates and no "dropped" markers;
//   - all subscribers' streams are byte-identical, including one that
//     disconnects mid-run and resumes with Last-Event-ID;
//   - a stalled subscriber (connected, never reading) does not degrade
//     ask latency: the fanout p99 is bounded against a no-subscriber
//     baseline run of the same workload;
//   - the pubsub metrics are well-formed and account for every event.
//
// With -fanout-cluster the same assertions run against an in-process
// 3-node cluster whose session owner is killed mid-run: every subscriber
// is torn and must reconnect through the router, and the promoted
// follower must continue the exact sequence — the deterministic-replay
// re-seeding guarantee, checked from the wire.

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fisql"
	"fisql/internal/cluster"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/server"
)

type fanoutConfig struct {
	Subscribers int
	Asks        int
	Cluster     bool
	Nodes       int
	P99Factor   float64
	P99Slack    time.Duration
}

type fanoutEvent struct {
	id   string
	name string
	data string
}

// readFanoutEvent parses one SSE frame: optional id line, event line, data
// line, blank terminator.
func readFanoutEvent(br *bufio.Reader) (fanoutEvent, error) {
	var ev fanoutEvent
	started := false
	for {
		line, err := br.ReadString('\n')
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

// openEventStream subscribes to the session's fanout stream; from > 0
// resumes via Last-Event-ID.
func openEventStream(client *http.Client, base, sid string, from uint64) (*http.Response, *bufio.Reader, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/sessions/"+sid+"/events", nil)
	if err != nil {
		return nil, nil, err
	}
	if from > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(from, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	return resp, bufio.NewReader(resp.Body), nil
}

// followEvents keeps a subscription alive until the terminal delete event:
// a torn connection (owner failover, injected reconnect) is resumed with
// Last-Event-ID, retrying through the promotion window. caughtUp runs once
// the subscriber holds want events: the driver deletes the session only
// after every subscriber has caught up, because a subscriber still
// between connections when the session ends can only get 404. Returns the
// full event list as this subscriber saw it, reconnects included.
func followEvents(client *http.Client, base, sid string, reconnectAfter, want int,
	caughtUp func()) ([]fanoutEvent, error) {
	var events []fanoutEvent
	var last uint64
	reconnects := 0
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, br, err := openEventStream(client, base, sid, last)
		if err != nil {
			if time.Now().After(deadline) {
				return events, fmt.Errorf("resubscribe: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		for {
			if reconnectAfter > 0 && len(events) == reconnectAfter && reconnects == 0 {
				// Injected mid-run disconnect: drop the connection on purpose
				// and resume from the last delivered id.
				resp.Body.Close()
				reconnects++
				break
			}
			ev, err := readFanoutEvent(br)
			if err != nil {
				resp.Body.Close()
				if len(events) > 0 && events[len(events)-1].name == "delete" {
					return events, nil
				}
				break // torn mid-stream: resume from last
			}
			events = append(events, ev)
			if len(events) == want {
				caughtUp()
			}
			if ev.name == "delete" {
				resp.Body.Close()
				return events, nil
			}
			if ev.id != "" {
				if n, perr := strconv.ParseUint(ev.id, 10, 64); perr == nil {
					last = n
				}
			}
		}
		if time.Now().After(deadline) {
			return events, fmt.Errorf("stream never reached the delete event")
		}
	}
}

// auditStreams checks every subscriber's event list for the fanout
// contract and cross-checks byte-identity against the first. Returns the
// number of violations logged.
func auditStreams(streams [][]fanoutEvent, wantEvents int) int {
	failures := 0
	for i, evs := range streams {
		if len(evs) != wantEvents {
			log.Printf("FAIL: subscriber %d saw %d events, want %d", i, len(evs), wantEvents)
			failures++
			continue
		}
		for j, ev := range evs {
			if ev.name == "dropped" {
				log.Printf("FAIL: subscriber %d event %d is a dropped marker", i, j)
				failures++
				continue
			}
			if want := strconv.Itoa(j + 1); ev.id != want {
				log.Printf("FAIL: subscriber %d event %d (%s) has id %q, want %q",
					i, j, ev.name, ev.id, want)
				failures++
			}
			if i > 0 && ev != streams[0][j] {
				log.Printf("FAIL: subscriber %d event %d differs from subscriber 0: %+v vs %+v",
					i, j, ev, streams[0][j])
				failures++
			}
		}
	}
	return failures
}

// askLatencies drives n sequential asks and returns the sorted latencies.
func askLatencies(client *http.Client, base, sid string, questions []string, n int) ([]time.Duration, error) {
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		q := questions[i%len(questions)]
		t0 := time.Now()
		r, err := request(client, http.MethodPost, base+"/v1/sessions/"+sid+"/ask",
			map[string]string{"question": q})
		if err != nil {
			return nil, err
		}
		if r.status != http.StatusOK {
			return nil, fmt.Errorf("ask %s: status %d", sid, r.status)
		}
		lats = append(lats, time.Since(t0))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats, nil
}

func runFanout(sys *fisql.System, corpus string, dbs []string,
	questionsByDB map[string][]string, cfg fanoutConfig) int {
	if cfg.Subscribers < 2 {
		log.Fatal("fanout scenario: need at least 2 subscribers (one reconnects mid-run)")
	}
	// A wedged stream must fail CI, not hang it: every follow loop has its
	// own deadline, but a stuck ask (no client timeout, by design — streams
	// are long-lived) would otherwise block forever.
	watchdog := time.AfterFunc(5*time.Minute, func() {
		log.Fatal("fanout scenario: watchdog fired — a stream or request wedged")
	})
	defer watchdog.Stop()
	db := ""
	for _, d := range dbs {
		if len(questionsByDB[d]) > 0 {
			db = d
			break
		}
	}
	if db == "" {
		log.Fatal("fanout scenario: corpus has no example questions")
	}
	questions := questionsByDB[db]
	if cfg.Cluster {
		return runFanoutCluster(sys, corpus, db, questions, cfg)
	}

	m := obs.NewMetrics()
	ts := httptest.NewServer(server.New(map[string]server.SessionFactory{
		corpus: sysAdapter{sys},
	}, server.WithMetrics(m)))
	defer ts.Close()
	client := &http.Client{}

	// Baseline: the identical ask workload with no subscriber attached.
	baseSID, err := createSession(client, ts.URL, corpus, db)
	if err != nil {
		log.Fatalf("fanout scenario: %v", err)
	}
	baseline, err := askLatencies(client, ts.URL, baseSID, questions, cfg.Asks)
	if err != nil {
		log.Fatalf("fanout scenario: baseline ask: %v", err)
	}

	sid, err := createSession(client, ts.URL, corpus, db)
	if err != nil {
		log.Fatalf("fanout scenario: %v", err)
	}

	// Attach the subscribers: subscriber 0 will disconnect mid-run and
	// resume via Last-Event-ID; the rest follow straight through. One extra
	// stalled connection subscribes and never reads a byte — the hub's
	// non-blocking publish means it must not slow the asks below.
	wantEvents := 1 + 4*cfg.Asks + 1 // open + turns + delete
	streams := make([][]fanoutEvent, cfg.Subscribers)
	errs := make([]error, cfg.Subscribers)
	var wg, caughtUp sync.WaitGroup
	for i := 0; i < cfg.Subscribers; i++ {
		reconnectAfter := 0
		if i == 0 {
			reconnectAfter = 1 + 4*(cfg.Asks/2)
		}
		wg.Add(1)
		caughtUp.Add(1)
		go func(i, reconnectAfter int) {
			defer wg.Done()
			var once sync.Once
			done := func() { once.Do(caughtUp.Done) }
			defer done() // a subscriber that gives up must not block the delete
			streams[i], errs[i] = followEvents(client, ts.URL, sid, reconnectAfter, wantEvents-1, done)
		}(i, reconnectAfter)
	}
	stalled, _, err := openEventStream(client, ts.URL, sid, 0)
	if err != nil {
		log.Fatalf("fanout scenario: stalled subscriber: %v", err)
	}

	loaded, err := askLatencies(client, ts.URL, sid, questions, cfg.Asks)
	if err != nil {
		log.Fatalf("fanout scenario: loaded ask: %v", err)
	}
	caughtUp.Wait()
	if r, err := request(client, http.MethodDelete, ts.URL+"/v1/sessions/"+sid, nil); err != nil || r.status != http.StatusOK {
		log.Fatalf("fanout scenario: delete %s: status %d err %v", sid, r.status, err)
	}
	wg.Wait()
	stalled.Body.Close()

	failures := 0
	for i, err := range errs {
		if err != nil {
			log.Printf("FAIL: subscriber %d: %v", i, err)
			failures++
		}
	}
	failures += auditStreams(streams, wantEvents)

	// Latency guard: the loaded p99 (subscribers + one stalled reader
	// attached) stays within factor*baseline + slack.
	basep99 := percentile(baseline, 99)
	loadp99 := percentile(loaded, 99)
	bound := time.Duration(float64(basep99)*cfg.P99Factor) + cfg.P99Slack
	if loadp99 > bound {
		log.Printf("FAIL: ask p99 with subscribers %.2fms exceeds bound %.2fms (baseline %.2fms)",
			ms(loadp99), ms(bound), ms(basep99))
		failures++
	}

	// Metrics: the hub accounted for every published event (both sessions'
	// workloads), replays recorded the resume, and no subscriber remains.
	snap := m.Registry.Snapshot()
	wantPublished := int64(2*(1+4*cfg.Asks) + 1) // two sessions, one deleted
	if got := snap.Counters["fisql_pubsub_published_total"]; got != wantPublished {
		log.Printf("FAIL: fisql_pubsub_published_total = %d, want %d", got, wantPublished)
		failures++
	}
	if got := snap.Counters["fisql_pubsub_replays_total"]; got < 1 {
		log.Printf("FAIL: fisql_pubsub_replays_total = %d, want >= 1 (one subscriber resumed)", got)
		failures++
	}
	if got := snap.Gauges["fisql_pubsub_subscribers"]; got != 0 {
		log.Printf("FAIL: fisql_pubsub_subscribers = %d after all streams closed, want 0", got)
		failures++
	}

	fmt.Printf("fisql-loadgen fanout: corpus=%s subscribers=%d asks=%d events=%d\n",
		corpus, cfg.Subscribers, cfg.Asks, wantEvents)
	fmt.Printf("ask p99 baseline=%.2fms with_subscribers=%.2fms bound=%.2fms published=%d failures=%d\n",
		ms(basep99), ms(loadp99), ms(bound), snap.Counters["fisql_pubsub_published_total"], failures)
	if failures > 0 {
		log.Printf("FAIL: %d fanout violations", failures)
		return 1
	}
	return 0
}

// runFanoutCluster reruns the fanout contract against an in-process
// cluster with a mid-run owner kill: every subscriber reconnects through
// the router and the promoted follower continues the sequence.
func runFanoutCluster(sys *fisql.System, corpus, db string, questions []string, cfg fanoutConfig) int {
	if cfg.Nodes < 2 {
		log.Fatal("fanout scenario: -cluster-nodes must be at least 2")
	}
	dir, err := os.MkdirTemp("", "fisql-fanout-*")
	if err != nil {
		log.Fatalf("fanout scenario: %v", err)
	}
	defer os.RemoveAll(dir)

	systems := map[string]server.SessionFactory{corpus: sysAdapter{sys}}
	nodes := make([]*clusterNode, cfg.Nodes)
	members := make([]cluster.Member, cfg.Nodes)
	handlers := make([]*lateHandler, cfg.Nodes)
	for i := range nodes {
		id := fmt.Sprintf("node-%d", i)
		handlers[i] = &lateHandler{}
		ts := httptest.NewServer(handlers[i])
		nodes[i] = &clusterNode{id: id, ts: ts}
		members[i] = cluster.Member{ID: id, Addr: ts.URL}
	}
	for i, cn := range nodes {
		j, err := persist.Open(filepath.Join(dir, cn.id+".journal"), persist.Options{Fsync: persist.FsyncInterval})
		if err != nil {
			log.Fatalf("fanout scenario: open journal: %v", err)
		}
		rep, err := persist.Open(filepath.Join(dir, cn.id+".replica"), persist.Options{Fsync: persist.FsyncInterval})
		if err != nil {
			log.Fatalf("fanout scenario: open replica: %v", err)
		}
		cn.journal, cn.replica = j, rep
		cn.node = cluster.NewNode(cluster.NodeConfig{
			ID:        cn.id,
			Members:   members,
			Systems:   systems,
			Journal:   j,
			Replica:   rep,
			Metrics:   obs.NewMetrics(),
			AuthToken: "loadgen-fanout-token",
		})
		handlers[i].set(cn.node)
	}
	rt := cluster.NewRouter(cluster.RouterConfig{
		Members:   members,
		AuthToken: "loadgen-fanout-token",
	})
	rts := httptest.NewServer(rt)
	defer func() {
		rt.Close()
		rts.Close()
		for _, cn := range nodes {
			if cn.killed {
				continue
			}
			cn.ts.Close()
			cn.journal.Close()
			cn.replica.Close()
		}
	}()
	base := rts.URL
	client := &http.Client{}

	sid, err := createSession(client, base, corpus, db)
	if err != nil {
		log.Fatalf("fanout scenario: %v", err)
	}
	wantEvents := 1 + 4*cfg.Asks + 1
	streams := make([][]fanoutEvent, cfg.Subscribers)
	errs := make([]error, cfg.Subscribers)
	var wg, caughtUp sync.WaitGroup
	for i := 0; i < cfg.Subscribers; i++ {
		wg.Add(1)
		caughtUp.Add(1)
		go func(i int) {
			defer wg.Done()
			var once sync.Once
			done := func() { once.Do(caughtUp.Done) }
			defer done()
			streams[i], errs[i] = followEvents(client, base, sid, 0, wantEvents-1, done)
		}(i)
	}

	firstHalf := cfg.Asks / 2
	if _, err := askLatencies(client, base, sid, questions, firstHalf); err != nil {
		log.Fatalf("fanout scenario: pre-kill ask: %v", err)
	}

	// Kill the owner mid-run: every subscriber's stream is torn and must
	// resume against the promoted follower with no sequence regress.
	var victim *clusterNode
	for _, cn := range nodes {
		for _, owned := range cn.node.Server().SessionIDs() {
			if owned == sid {
				victim = cn
			}
		}
	}
	if victim == nil {
		log.Fatal("fanout scenario: no node owns the session")
	}
	victim.kill()
	rt.MarkDead(victim.id)

	if _, err := askLatencies(client, base, sid, questions, cfg.Asks-firstHalf); err != nil {
		log.Fatalf("fanout scenario: post-failover ask: %v", err)
	}
	caughtUp.Wait()
	if r, err := request(client, http.MethodDelete, base+"/v1/sessions/"+sid, nil); err != nil || r.status != http.StatusOK {
		log.Fatalf("fanout scenario: delete %s: status %d err %v", sid, r.status, err)
	}
	wg.Wait()

	failures := 0
	for i, err := range errs {
		if err != nil {
			log.Printf("FAIL: subscriber %d: %v", i, err)
			failures++
		}
	}
	failures += auditStreams(streams, wantEvents)
	// Every subscriber crossed the failover: the stitched streams above
	// being gap-free proves the promoted node re-seeded the dead owner's
	// exact sequence numbers from its replicated journal.

	fmt.Printf("fisql-loadgen fanout: corpus=%s cluster_nodes=%d subscribers=%d asks=%d events=%d victim=%s failures=%d\n",
		corpus, cfg.Nodes, cfg.Subscribers, cfg.Asks, wantEvents, victim.id, failures)
	if failures > 0 {
		log.Printf("FAIL: %d fanout violations", failures)
		return 1
	}
	return 0
}
