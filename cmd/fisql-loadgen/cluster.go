package main

// The -cluster scenario: bring up -cluster-nodes in-process cluster nodes
// behind a router, drive mixed session traffic at them, kill the busiest
// node at -cluster-kill-at of the run with no warning — connections torn,
// journals abandoned mid-stream — and keep driving. The run fails if any
// client ever saw a status other than a clean 200/429, if any acknowledged
// turn is missing or altered after failover, or if the survivors' metrics
// endpoints stop being well-formed. This is the CI chaos gate: the
// promotion path runs on every commit, not just when a node really dies.

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fisql"
	"fisql/internal/cluster"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/persist/persisttest"
	"fisql/internal/server"
)

type clusterConfig struct {
	Nodes          int
	KillAt         float64
	HealthInterval time.Duration
	Sessions       int
	Duration       time.Duration
	Seed           int64
}

// lateHandler lets the node's HTTP server exist before the node does: the
// members list needs every node's address, and the nodes need the members
// list. 503 before wiring — nothing runs that early.
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not wired yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

type clusterNode struct {
	id      string
	node    *cluster.Node
	ts      *httptest.Server
	journal *persist.Journal
	replica *persist.Journal
	killed  bool
}

// kill tears the node down the way a crash would: open connections die,
// new dials are refused, and both journals are abandoned without a
// checkpoint.
func (cn *clusterNode) kill() {
	cn.killed = true
	cn.ts.Listener.Close()
	cn.ts.CloseClientConnections()
	cn.journal.Crash()
	cn.replica.Crash()
}

// clusterWorker is one session's traffic source. acked records the text of
// every question the router acknowledged with 200, in send order — the
// ledger the post-run audit checks the final histories against.
type clusterWorker struct {
	id     string
	db     string
	acked  []string
	counts map[int]int
	// violations are responses outside the clean contract: anything but
	// 200 on this scenario's requests (no admission control is configured,
	// so even 429 would be a surprise, but the gate tolerates it by
	// design — overload shedding is legitimate).
	violations []string
}

func runCluster(sys *fisql.System, corpus string, dbs []string,
	questionsByDB map[string][]string, cfg clusterConfig) int {
	if cfg.Nodes < 2 {
		log.Fatal("cluster scenario: need at least 2 nodes (one to kill, one to promote)")
	}
	if cfg.KillAt <= 0 || cfg.KillAt >= 1 {
		log.Fatal("cluster scenario: -cluster-kill-at must be in (0, 1)")
	}
	dir, err := os.MkdirTemp("", "fisql-cluster-*")
	if err != nil {
		log.Fatalf("cluster scenario: %v", err)
	}
	defer os.RemoveAll(dir)

	// Servers first (for addresses), then members, then nodes.
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
			log.Fatalf("cluster scenario: open journal: %v", err)
		}
		rep, err := persist.Open(filepath.Join(dir, cn.id+".replica"), persist.Options{Fsync: persist.FsyncInterval})
		if err != nil {
			log.Fatalf("cluster scenario: open replica: %v", err)
		}
		cn.journal, cn.replica = j, rep
		cn.node = cluster.NewNode(cluster.NodeConfig{
			ID:      cn.id,
			Members: members,
			Systems: systems,
			Journal: j,
			Replica: rep,
			Metrics: obs.NewMetrics(),
			// A real token even in the in-process harness, so the smoke run
			// exercises the authenticated inter-node path end to end.
			AuthToken: "loadgen-cluster-token",
		})
		handlers[i].set(cn.node)
	}
	rm := obs.NewMetrics()
	rt := cluster.NewRouter(cluster.RouterConfig{
		Members:        members,
		Metrics:        rm,
		HealthInterval: cfg.HealthInterval,
		AuthToken:      "loadgen-cluster-token",
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
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Sessions * 2,
		MaxIdleConnsPerHost: cfg.Sessions * 2,
	}}

	// Phase 1: load every session until the kill point, then quiesce so the
	// pre-kill capture is an exact acknowledged state, not a racing one.
	workers := make([]*clusterWorker, cfg.Sessions)
	for w := range workers {
		db := dbs[w%len(dbs)]
		id, err := createSession(client, base, corpus, db)
		if err != nil {
			log.Fatalf("cluster scenario: create session: %v", err)
		}
		workers[w] = &clusterWorker{id: id, db: db, counts: map[int]int{}}
	}
	drive := func(until time.Time) {
		var wg sync.WaitGroup
		for w, cw := range workers {
			wg.Add(1)
			go func(w int, cw *clusterWorker) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
				questions := questionsByDB[cw.db]
				for time.Now().Before(until) {
					if len(cw.acked) > 0 && rng.Intn(4) == 0 {
						r, err := request(client, http.MethodGet, base+"/v1/sessions/"+cw.id+"/history", nil)
						cw.note(r.status, err, "history")
						continue
					}
					q := questions[rng.Intn(len(questions))]
					r, err := request(client, http.MethodPost, base+"/v1/sessions/"+cw.id+"/ask",
						map[string]string{"question": q})
					cw.note(r.status, err, "ask")
					if r.status == http.StatusOK {
						cw.acked = append(cw.acked, q)
					}
				}
			}(w, cw)
		}
		wg.Wait()
	}
	start := time.Now()
	drive(start.Add(time.Duration(cfg.KillAt * float64(cfg.Duration))))

	ids := make([]string, len(workers))
	for i, cw := range workers {
		ids[i] = cw.id
	}
	preKill, err := persisttest.Capture(client, base, ids)
	if err != nil {
		log.Fatalf("cluster scenario: pre-kill capture: %v", err)
	}

	// Kill the busiest node. No MarkDead call: detection must come from the
	// paths a real deployment has — a failing forward or the health probe.
	var victim *clusterNode
	for _, cn := range nodes {
		if victim == nil || len(cn.node.Server().SessionIDs()) > len(victim.node.Server().SessionIDs()) {
			victim = cn
		}
	}
	victimOwned := len(victim.node.Server().SessionIDs())
	log.Printf("cluster scenario: killing %s (%d sessions) at %s",
		victim.id, victimOwned, time.Since(start).Round(time.Millisecond))
	victim.kill()

	// Phase 2: same traffic through the failover window and beyond, plus
	// fresh sessions to prove creates survive the membership change.
	drive(start.Add(cfg.Duration))
	for i := 0; i < 3; i++ {
		id, err := createSession(client, base, corpus, dbs[i%len(dbs)])
		if err != nil {
			log.Fatalf("cluster scenario: post-failover create: %v", err)
		}
		r, err := request(client, http.MethodPost, base+"/v1/sessions/"+id+"/ask",
			map[string]string{"question": questionsByDB[dbs[i%len(dbs)]][0]})
		if err != nil || r.status != http.StatusOK {
			log.Fatalf("cluster scenario: post-failover ask on %s: code %d err %v", id, r.status, err)
		}
	}

	// Audit. (1) Clean statuses only.
	failures := 0
	statuses := map[int]int{}
	for _, cw := range workers {
		for code, n := range cw.counts {
			statuses[code] += n
		}
		for _, v := range cw.violations {
			log.Printf("FAIL: session %s: %s", cw.id, v)
			failures++
		}
	}
	// (2) Acknowledged pre-kill turns survive byte-for-byte as a whole-turn
	// prefix, and (3) every turn acked in either phase appears in order in
	// the final history (at-least-once: duplicates tolerated, loss not).
	for _, cw := range workers {
		post, err := persisttest.History(client, base, cw.id)
		if err != nil {
			log.Printf("FAIL: session %s lost after failover: %v", cw.id, err)
			failures++
			continue
		}
		if !persisttest.TurnsPrefix(preKill[cw.id], post) {
			log.Printf("FAIL: session %s: pre-kill acknowledged turns not an intact prefix", cw.id)
			failures++
		}
		if miss := missingAcked(post, cw.acked); miss != "" {
			log.Printf("FAIL: session %s: acked turn lost: %q", cw.id, miss)
			failures++
		}
	}
	// (4) The failover actually ran and was observed.
	rsnap := rm.Registry.Snapshot()
	if rsnap.Counters["fisql_cluster_failovers_total"] < 1 {
		log.Printf("FAIL: router recorded no failover")
		failures++
	}
	if promoted := rsnap.Counters["fisql_cluster_sessions_promoted_total"]; promoted < int64(victimOwned) {
		log.Printf("FAIL: %d sessions promoted, victim owned %d", promoted, victimOwned)
		failures++
	}
	if got := len(rt.Members()); got != cfg.Nodes-1 {
		log.Printf("FAIL: %d members after failover, want %d", got, cfg.Nodes-1)
		failures++
	}
	// (5) Metrics stay scrapeable and well-formed on the router and every
	// survivor.
	for _, target := range append([]string{base}, survivorURLs(nodes)...) {
		if _, err := scrapeMetrics(client, target); err != nil {
			log.Printf("FAIL: metrics on %s: %v", target, err)
			failures++
		}
	}

	totalAcked := 0
	for _, cw := range workers {
		totalAcked += len(cw.acked)
	}
	fmt.Printf("fisql-loadgen cluster: corpus=%s nodes=%d sessions=%d duration=%s kill_at=%.0f%% victim=%s\n",
		corpus, cfg.Nodes, cfg.Sessions, cfg.Duration, cfg.KillAt*100, victim.id)
	fmt.Printf("acked_turns=%d promoted=%d statuses=%v failures=%d\n",
		totalAcked, rsnap.Counters["fisql_cluster_sessions_promoted_total"], statuses, failures)
	if failures > 0 {
		log.Printf("FAIL: %d cluster-scenario violations", failures)
		return 1
	}
	return 0
}

// note tallies one response; anything outside {200, 429} — including a
// transport error, which the router exists to absorb — is a violation.
func (cw *clusterWorker) note(code int, err error, op string) {
	if err != nil {
		cw.violations = append(cw.violations, fmt.Sprintf("%s: transport error: %v", op, err))
		return
	}
	cw.counts[code]++
	if code != http.StatusOK && code != http.StatusTooManyRequests {
		cw.violations = append(cw.violations, fmt.Sprintf("%s: status %d", op, code))
	}
}

// missingAcked returns the first acknowledged question that does not
// appear, in order, among the history's user turns; "" when all survive.
// Greedy subsequence: duplicate questions and at-least-once re-applies
// both match naturally.
func missingAcked(history []byte, acked []string) string {
	var h struct {
		Turns []struct {
			Role string `json:"role"`
			Text string `json:"text"`
		} `json:"turns"`
	}
	if err := json.Unmarshal(history, &h); err != nil {
		return fmt.Sprintf("<unparseable history: %v>", err)
	}
	i := 0
	for _, turn := range h.Turns {
		if i < len(acked) && turn.Role == "user" && turn.Text == acked[i] {
			i++
		}
	}
	if i < len(acked) {
		return acked[i]
	}
	return ""
}

func survivorURLs(nodes []*clusterNode) []string {
	var out []string
	for _, cn := range nodes {
		if !cn.killed {
			out = append(out, cn.ts.URL)
		}
	}
	return out
}
