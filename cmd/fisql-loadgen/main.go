// Command fisql-loadgen drives the REST server with concurrent mixed
// session traffic and reports throughput and latency percentiles, so
// serving-path changes have a measured trajectory (see BENCH_serving.json
// for the recorded baselines).
//
// Each of -sessions workers owns one server session and loops over a
// weighted ask/feedback/history mix (-mix) until -duration elapses.
// Questions are drawn deterministically (-seed) from the corpus's own
// examples, so runs are comparable across machines and revisions.
//
// By default the target server is built in-process and served over a
// loopback listener (the whole stack, HTTP included, is measured without
// needing a separate process). Pass -addr to aim at a live fisql-server
// instead — e.g. a pre-change binary for paired A/B runs.
//
// With -metrics (the default) the in-process server runs with observability
// enabled; after the run the generator scrapes /v1/metrics, verifies both
// the JSON and Prometheus forms are well-formed, and folds the per-stage
// latency breakdown and cache counters into the report. Against -addr the
// scrape is attempted and skipped with a warning if the target was started
// without -metrics.
//
// With -restart the generator runs the kill-and-restart durability
// scenario instead of a timed load run: it journals a -restart-sessions
// sized workload through an in-process server, captures every session's
// /history bytes, simulates a crash (the journal file is abandoned
// mid-stream and a torn partial record is appended, as an interrupted
// write would leave), recovers a fresh server from the journal and
// requires each recovered history to be byte-identical to its pre-crash
// capture — failing if recovery exceeds -restart-budget.
//
// With -overload the generator runs the admission-control scenario (see
// overload.go): an in-process server with a real capacity limit is driven
// at capacity and then at -overload-factor times capacity, asserting that
// accepted asks keep a bounded p99, that excess load is shed exclusively
// with clean 429 + Retry-After responses, and that a kill-and-restart
// recovery after the overload loses no acknowledged turn.
//
// With -fanout the generator runs the session-event fanout scenario (see
// fanout.go): -fanout-subscribers concurrent /v1/sessions/{id}/events
// subscribers — one of which disconnects mid-run and resumes with
// Last-Event-ID, plus one stalled reader that never drains its
// connection — watch a session being driven through -fanout-asks turns,
// and the run fails unless every subscriber saw the same gap-free,
// duplicate-free, byte-identical event sequence, the stalled reader did
// not degrade ask p99 versus a no-subscriber baseline, and the pubsub
// metrics account for every published event. With -fanout-cluster the
// same contract is asserted across a mid-run owner kill in an in-process
// cluster: subscribers reconnect through the router and the promoted
// follower must continue the exact sequence.
//
//	fisql-loadgen -corpus aep -sessions 32 -duration 5s
//	fisql-loadgen -addr 127.0.0.1:8321 -corpus spider -mix 6:2:2 -json out.json
//	fisql-loadgen -corpus aep -restart -restart-sessions 1000
//	fisql-loadgen -corpus aep -overload -overload-duration 1s
//	fisql-loadgen -corpus aep -fanout -fanout-subscribers 4
//	fisql-loadgen -corpus aep -fanout -fanout-cluster
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
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
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/persist/persisttest"
	"fisql/internal/server"
)

type sysAdapter struct{ *fisql.System }

func (a sysAdapter) NewSession(db string) *fisql.Session {
	return a.Session(db, fisql.Options{Routing: true, Highlights: true})
}

// feedbackTexts is the pool of generic feedback lines workers send; the
// pipeline handles arbitrary text, these just exercise the repair path.
var feedbackTexts = []string{
	"we are in 2024",
	"only show the top 5",
	"sort the results by the first column",
	"remove the limit",
	"count them instead",
}

type opKind int

const (
	opAsk opKind = iota
	opFeedback
	opHistory
	numOps
)

type workerStats struct {
	latencies []time.Duration
	opCounts  [numOps]int64
	errors    int64
}

type report struct {
	Corpus   string  `json:"corpus"`
	Sessions int     `json:"sessions"`
	Duration string  `json:"duration"`
	Mix      string  `json:"mix"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	RPS      float64 `json:"rps"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
	Maxms    float64 `json:"max_ms"`
	Asks     int64   `json:"asks"`
	Feedback int64   `json:"feedback"`
	History  int64   `json:"history"`
	// Stages and Counters come from the target's /v1/metrics scrape; empty
	// when metrics are disabled or the target does not expose them.
	Stages   []stageJSON      `json:"stages,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// stageJSON is one pipeline stage's server-side latency summary.
type stageJSON struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
}

func main() {
	log.SetFlags(0)
	corpus := flag.String("corpus", "aep", "corpus to drive: aep or spider")
	ragIndex := flag.String("rag-index", "exact",
		"demonstration retrieval index of the in-process server: exact or hnsw")
	ragFold := flag.Bool("rag-fold", false,
		"fold successful feedback corrections back into the in-process server's retrieval store")
	sessions := flag.Int("sessions", 32, "concurrent sessions (one worker each)")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	mix := flag.String("mix", "5:3:2", "ask:feedback:history request weights")
	addr := flag.String("addr", "", "target a live fisql-server (host:port); empty runs one in-process")
	seed := flag.Int64("seed", 1, "question-selection seed")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file (- for stdout)")
	metricsOn := flag.Bool("metrics", true,
		"enable server metrics (in-process) and report the per-stage breakdown")
	restart := flag.Bool("restart", false,
		"run the kill-and-restart durability scenario instead of a timed load run")
	restartSessions := flag.Int("restart-sessions", 1000,
		"sessions to journal in the restart scenario")
	restartBudget := flag.Duration("restart-budget", time.Second,
		"fail the restart scenario if journal recovery takes longer than this")
	overload := flag.Bool("overload", false,
		"run the admission-control overload scenario instead of a timed load run")
	overloadFactor := flag.Int("overload-factor", 4,
		"overload phase drives this many times the server's ask capacity")
	overloadDuration := flag.Duration("overload-duration", 2*time.Second,
		"length of each overload phase (at-capacity, then overloaded)")
	overloadAskLimit := flag.Int("overload-ask-limit", 8,
		"admission ask concurrency limit of the overloaded server")
	overloadQueue := flag.Int("overload-queue", 0,
		"admission queue depth of the overloaded server (0 = the ask limit)")
	overloadQueueTimeout := flag.Duration("overload-queue-timeout", 25*time.Millisecond,
		"queue timeout of the overloaded server")
	overloadLLMLatency := flag.Duration("overload-llm-latency", 5*time.Millisecond,
		"injected per-model-call latency that defines the server's capacity")
	overloadP99Factor := flag.Float64("overload-p99-factor", 3.0,
		"fail if overload p99 exceeds this multiple of the at-capacity p99 (plus slack)")
	overloadP99Slack := flag.Duration("overload-p99-slack", 30*time.Millisecond,
		"absolute allowance added to the overload p99 bound, for timer noise")
	clusterOn := flag.Bool("cluster", false,
		"run the cluster failover chaos scenario instead of a timed load run")
	clusterNodes := flag.Int("cluster-nodes", 3,
		"in-process cluster nodes behind the router in the cluster scenario")
	clusterKillAt := flag.Float64("cluster-kill-at", 0.5,
		"kill the busiest node after this fraction of -duration (0 < f < 1)")
	clusterHealthInterval := flag.Duration("cluster-health-interval", 25*time.Millisecond,
		"router health-probe period in the cluster scenario")
	fanoutOn := flag.Bool("fanout", false,
		"run the session-event fanout scenario instead of a timed load run")
	fanoutSubscribers := flag.Int("fanout-subscribers", 4,
		"concurrent /events subscribers in the fanout scenario (one reconnects mid-run)")
	fanoutAsks := flag.Int("fanout-asks", 6,
		"turns driven through the observed session in the fanout scenario")
	fanoutCluster := flag.Bool("fanout-cluster", false,
		"run the fanout scenario against an in-process cluster with a mid-run owner kill")
	fanoutP99Factor := flag.Float64("fanout-p99-factor", 4.0,
		"fail if ask p99 with subscribers attached exceeds this multiple of the baseline (plus slack)")
	fanoutP99Slack := flag.Duration("fanout-p99-slack", 50*time.Millisecond,
		"absolute allowance added to the fanout p99 bound, for timer noise")
	flag.Parse()

	weights, err := parseMix(*mix)
	if err != nil {
		log.Fatal(err)
	}

	// The corpus is built locally even in -addr mode: it is deterministic,
	// and it supplies the question pool for the workers.
	var sys *fisql.System
	switch *corpus {
	case "aep":
		sys, err = fisql.NewExperiencePlatformSystem()
	case "spider":
		sys, err = fisql.NewSpiderSystem()
	default:
		log.Fatalf("unknown corpus %q (want aep or spider)", *corpus)
	}
	if err != nil {
		log.Fatalf("build corpus: %v", err)
	}
	if err := sys.SetDemoIndex(*ragIndex); err != nil {
		log.Fatalf("-rag-index: %v", err)
	}
	sys.FoldFeedback = *ragFold
	questionsByDB := map[string][]string{}
	for _, e := range sys.DS.Examples {
		questionsByDB[e.DB] = append(questionsByDB[e.DB], e.Question)
	}
	dbs := sys.Databases()

	if *restart {
		if *addr != "" {
			log.Fatal("-restart drives an in-process server; it cannot be combined with -addr")
		}
		os.Exit(runRestart(sys, *corpus, dbs, questionsByDB, *restartSessions, *restartBudget))
	}
	if *clusterOn {
		if *addr != "" {
			log.Fatal("-cluster drives an in-process cluster; it cannot be combined with -addr")
		}
		os.Exit(runCluster(sys, *corpus, dbs, questionsByDB, clusterConfig{
			Nodes:          *clusterNodes,
			KillAt:         *clusterKillAt,
			HealthInterval: *clusterHealthInterval,
			Sessions:       *sessions,
			Duration:       *duration,
			Seed:           *seed,
		}))
	}
	if *fanoutOn {
		if *addr != "" {
			log.Fatal("-fanout drives an in-process server; it cannot be combined with -addr")
		}
		os.Exit(runFanout(sys, *corpus, dbs, questionsByDB, fanoutConfig{
			Subscribers: *fanoutSubscribers,
			Asks:        *fanoutAsks,
			Cluster:     *fanoutCluster,
			Nodes:       *clusterNodes,
			P99Factor:   *fanoutP99Factor,
			P99Slack:    *fanoutP99Slack,
		}))
	}
	if *overload {
		if *addr != "" {
			log.Fatal("-overload drives an in-process server; it cannot be combined with -addr")
		}
		os.Exit(runOverload(sys, *corpus, dbs, questionsByDB, overloadConfig{
			Factor:       *overloadFactor,
			Duration:     *overloadDuration,
			AskLimit:     *overloadAskLimit,
			Queue:        *overloadQueue,
			QueueTimeout: *overloadQueueTimeout,
			LLMLatency:   *overloadLLMLatency,
			P99Factor:    *overloadP99Factor,
			P99Slack:     *overloadP99Slack,
		}))
	}

	base := "http://" + *addr
	inProcess := *addr == ""
	if inProcess {
		var opts []server.Option
		if *metricsOn {
			m := obs.NewMetrics()
			sys.Observe(m.Registry)
			opts = append(opts, server.WithMetrics(m))
		}
		ts := httptest.NewServer(server.New(map[string]server.SessionFactory{
			*corpus: sysAdapter{sys},
		}, opts...))
		defer ts.Close()
		base = ts.URL
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *sessions * 2,
		MaxIdleConnsPerHost: *sessions * 2,
	}}

	stats := make([]workerStats, *sessions)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			db := dbs[w%len(dbs)]
			questions := questionsByDB[db]
			if len(questions) == 0 {
				return
			}
			st := &stats[w]
			sid, err := createSession(client, base, *corpus, db)
			if err != nil {
				st.errors++
				return
			}
			sessURL := base + "/v1/sessions/" + sid
			asked := false
			for time.Now().Before(deadline) {
				op := pickOp(rng, weights)
				// Feedback and history need a query/turns to be meaningful;
				// the first request of every session is always an ask.
				if !asked {
					op = opAsk
				}
				var r reply
				var err error
				t0 := time.Now()
				switch op {
				case opAsk:
					q := questions[rng.Intn(len(questions))]
					r, err = request(client, http.MethodPost, sessURL+"/ask",
						map[string]string{"question": q})
				case opFeedback:
					fb := feedbackTexts[rng.Intn(len(feedbackTexts))]
					r, err = request(client, http.MethodPost, sessURL+"/feedback",
						map[string]string{"text": fb})
				case opHistory:
					r, err = request(client, http.MethodGet, sessURL+"/history", nil)
				}
				st.latencies = append(st.latencies, time.Since(t0))
				st.opCounts[op]++
				if err != nil || r.status != http.StatusOK {
					st.errors++
				} else if op == opAsk {
					asked = true
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge and summarize.
	var all []time.Duration
	rep := report{Corpus: *corpus, Sessions: *sessions, Duration: duration.String(), Mix: *mix}
	for i := range stats {
		all = append(all, stats[i].latencies...)
		rep.Errors += stats[i].errors
		rep.Asks += stats[i].opCounts[opAsk]
		rep.Feedback += stats[i].opCounts[opFeedback]
		rep.History += stats[i].opCounts[opHistory]
	}
	rep.Requests = int64(len(all))
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.RPS = float64(len(all)) / elapsed.Seconds()
	rep.P50ms = ms(percentile(all, 50))
	rep.P95ms = ms(percentile(all, 95))
	rep.P99ms = ms(percentile(all, 99))
	if len(all) > 0 {
		rep.Maxms = ms(all[len(all)-1])
	}

	if *metricsOn {
		// Malformed output from the in-process server is a bug in this repo
		// and fatal; a -addr target may simply run without -metrics, so
		// there a failed scrape only warns.
		if snap, err := scrapeMetrics(client, base); err == nil {
			rep.fold(snap)
		} else if inProcess {
			log.Fatalf("metrics scrape: %v", err)
		} else {
			log.Printf("warning: metrics scrape skipped: %v", err)
		}
	}

	fmt.Printf("fisql-loadgen: corpus=%s sessions=%d duration=%s mix=%s target=%s\n",
		rep.Corpus, rep.Sessions, rep.Duration, rep.Mix, targetName(*addr))
	fmt.Printf("requests=%d (ask=%d feedback=%d history=%d) errors=%d\n",
		rep.Requests, rep.Asks, rep.Feedback, rep.History, rep.Errors)
	fmt.Printf("rps=%.1f latency p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		rep.RPS, rep.P50ms, rep.P95ms, rep.P99ms, rep.Maxms)
	printStageBreakdown(&rep)

	if *jsonOut != "" {
		buf, _ := json.MarshalIndent(rep, "", "  ")
		buf = append(buf, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			log.Fatalf("write %s: %v", *jsonOut, err)
		}
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

func targetName(addr string) string {
	if addr == "" {
		return "in-process"
	}
	return addr
}

// runRestart is the kill-and-restart durability scenario. Returns the
// process exit code.
func runRestart(sys *fisql.System, corpus string, dbs []string,
	questionsByDB map[string][]string, n int, budget time.Duration) int {
	dir, err := os.MkdirTemp("", "fisql-restart-*")
	if err != nil {
		log.Fatalf("restart scenario: %v", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sessions.journal")

	journal, err := persist.Open(path, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		log.Fatalf("restart scenario: open journal: %v", err)
	}
	factories := map[string]server.SessionFactory{corpus: sysAdapter{sys}}
	ts := httptest.NewServer(server.New(factories, server.WithJournal(journal)))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

	// Journal a mixed workload: every session asks once, every third also
	// sends feedback, so replay exercises both pipeline paths.
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		db := dbs[i%len(dbs)]
		questions := questionsByDB[db]
		if len(questions) == 0 {
			continue
		}
		sid, err := createSession(client, ts.URL, corpus, db)
		if err != nil {
			log.Fatalf("restart scenario: %v", err)
		}
		sessURL := ts.URL + "/v1/sessions/" + sid
		r, err := request(client, http.MethodPost, sessURL+"/ask",
			map[string]string{"question": questions[i%len(questions)]})
		if err != nil || r.status != http.StatusOK {
			log.Fatalf("restart scenario: ask %s: status %d err %v", sid, r.status, err)
		}
		if i%3 == 0 {
			r, err := request(client, http.MethodPost, sessURL+"/feedback",
				map[string]string{"text": feedbackTexts[i%len(feedbackTexts)]})
			if err != nil || r.status != http.StatusOK {
				log.Fatalf("restart scenario: feedback %s: status %d err %v", sid, r.status, err)
			}
		}
		ids = append(ids, sid)
	}

	// Pre-crash captures: the byte-exact /history body of every session.
	capture, err := persisttest.Capture(client, ts.URL, ids)
	if err != nil {
		log.Fatalf("restart scenario: %v", err)
	}

	// Kill: stop serving and abandon the journal without a checkpoint, then
	// append a torn partial record — the tail an interrupted in-flight
	// write (never acknowledged to any client) would leave behind.
	ts.Close()
	if err := journal.Crash(); err != nil {
		log.Fatalf("restart scenario: crash: %v", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		log.Fatalf("restart scenario: %v", err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}); err != nil {
		log.Fatalf("restart scenario: torn append: %v", err)
	}
	f.Close()

	// Restart: recovery is Open plus the replay New performs.
	t0 := time.Now()
	journal2, err := persist.Open(path, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		log.Fatalf("restart scenario: reopen journal: %v", err)
	}
	srv2 := server.New(factories, server.WithJournal(journal2))
	recovery := time.Since(t0)
	rec := srv2.Recovery()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer journal2.Close()

	diffs := persisttest.DiffHistories(client, ts2.URL, capture)
	for _, d := range diffs {
		log.Printf("restart scenario: %s", d)
	}
	mismatches := len(diffs)

	fmt.Printf("fisql-loadgen restart: corpus=%s sessions=%d records=%d torn_bytes=%d\n",
		corpus, rec.Sessions, rec.Records, rec.TruncatedBytes)
	fmt.Printf("recovery=%s (budget %s) history_diffs=%d\n",
		recovery.Round(time.Millisecond), budget, mismatches)
	if mismatches > 0 {
		log.Printf("FAIL: %d recovered histories differ from their pre-crash capture", mismatches)
		return 1
	}
	if recovery > budget {
		log.Printf("FAIL: recovery took %s, budget %s", recovery, budget)
		return 1
	}
	return 0
}

// scrapeMetrics pulls /v1/metrics in both forms and checks they are
// well-formed: a JSON snapshot with stage histograms whose buckets end at
// +Inf with the full count, and a Prometheus text form exposing the same
// families. It returns the JSON snapshot.
func scrapeMetrics(client *http.Client, base string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	r, err := request(client, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return snap, err
	}
	if r.status != http.StatusOK {
		return snap, fmt.Errorf("status %d (target started without -metrics?)", r.status)
	}
	if err := json.Unmarshal(r.body, &snap); err != nil {
		return snap, fmt.Errorf("JSON body did not decode: %v", err)
	}
	if len(snap.Histograms) == 0 {
		return snap, fmt.Errorf("snapshot has no histograms")
	}
	for name, h := range snap.Histograms {
		if h.Count < 0 || len(h.Buckets) == 0 {
			return snap, fmt.Errorf("histogram %s malformed: count=%d buckets=%d", name, h.Count, len(h.Buckets))
		}
		if last := h.Buckets[len(h.Buckets)-1]; last.LE != "+Inf" || last.Count != h.Count {
			return snap, fmt.Errorf("histogram %s: last bucket %s=%d, want +Inf=%d", name, last.LE, last.Count, h.Count)
		}
	}

	r, err = request(client, http.MethodGet, base+"/v1/metrics?format=prometheus", nil)
	if err != nil || r.status != http.StatusOK {
		return snap, fmt.Errorf("prometheus form: status %d err %v", r.status, err)
	}
	for _, want := range []string{"# TYPE ", "_bucket{le=\"+Inf\"}", "_count"} {
		if !strings.Contains(string(r.body), want) {
			return snap, fmt.Errorf("prometheus text missing %q", want)
		}
	}
	return snap, nil
}

// fold copies the snapshot's non-empty per-stage histograms and its
// counters into the report.
func (rep *report) fold(snap obs.Snapshot) {
	var stageNames []string
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "fisql_stage_") {
			stageNames = append(stageNames, name)
		}
	}
	sort.Strings(stageNames)
	for _, name := range stageNames {
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(name, "fisql_stage_"), "_seconds")
		rep.Stages = append(rep.Stages, stageJSON{
			Stage: stage, Count: h.Count, P50ms: h.P50ms, P95ms: h.P95ms, P99ms: h.P99ms,
		})
	}
	rep.Counters = snap.Counters
}

// printStageBreakdown renders the scraped per-stage summary under the
// client-side numbers.
func printStageBreakdown(rep *report) {
	if len(rep.Stages) == 0 {
		return
	}
	fmt.Println("server-side stage breakdown:")
	fmt.Printf("  %-10s %10s %10s %10s %10s\n", "stage", "count", "p50_ms", "p95_ms", "p99_ms")
	for _, s := range rep.Stages {
		fmt.Printf("  %-10s %10d %10.3f %10.3f %10.3f\n", s.Stage, s.Count, s.P50ms, s.P95ms, s.P99ms)
	}
	var names []string
	for name := range rep.Counters {
		if strings.Contains(name, "_cache_") || strings.Contains(name, "_memo_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %s=%d\n", name, rep.Counters[name])
	}
}

func parseMix(s string) ([numOps]int, error) {
	var w [numOps]int
	parts := strings.Split(s, ":")
	if len(parts) != int(numOps) {
		return w, fmt.Errorf("bad -mix %q: want ask:feedback:history", s)
	}
	total := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return w, fmt.Errorf("bad -mix weight %q", p)
		}
		w[i] = n
		total += n
	}
	if total == 0 {
		return w, fmt.Errorf("bad -mix %q: all weights zero", s)
	}
	return w, nil
}

func pickOp(rng *rand.Rand, w [numOps]int) opKind {
	total := 0
	for _, n := range w {
		total += n
	}
	r := rng.Intn(total)
	for op, n := range w {
		if r < n {
			return opKind(op)
		}
		r -= n
	}
	return opAsk
}

func createSession(client *http.Client, base, corpus, db string) (string, error) {
	r, err := request(client, http.MethodPost, base+"/v1/sessions",
		map[string]string{"corpus": corpus, "db": db})
	if err != nil {
		return "", err
	}
	if r.status != http.StatusOK {
		return "", fmt.Errorf("create session: status %d", r.status)
	}
	var out struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(r.body, &out); err != nil || out.SessionID == "" {
		return "", fmt.Errorf("create session: bad body (%v)", err)
	}
	return out.SessionID, nil
}

// reply is one HTTP response, read to the end.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// request sends one request — payload, when non-nil, JSON-encoded as the
// body — and returns the whole response. A non-200 status is data, not an
// error: callers check it themselves. On error the reply is zero.
func request(client *http.Client, method, url string, payload any) (reply, error) {
	var rd io.Reader
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return reply{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: body}, nil
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
