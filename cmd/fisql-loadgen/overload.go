// The -overload scenario: drive the server far past saturation and verify
// that admission control keeps the accepted work fast and the refused work
// clean.
//
// The scenario builds an in-process server whose capacity is real: the
// answer memo is disabled (every ask exercises the model path), the
// simulated model is slowed by an injected per-call latency, and asks are
// admission-limited.
// Phase one drives exactly as many workers as the ask limit — the server at
// capacity — and records the baseline p99. Phase two drives
// -overload-factor times as many workers and asserts that overload degrades
// the service the only two ways it is allowed to:
//
//   - accepted asks stay fast: overload p99 <= -overload-p99-factor x the
//     at-capacity p99, plus -overload-p99-slack for timer noise. Admission
//     guarantees this structurally — an accepted ask waits at most the
//     queue timeout plus one bounded service time.
//   - everything else is shed, and shed cleanly: status 429 with a valid
//     whole-seconds Retry-After and the standard {"error": ...} JSON body.
//     No other failure status appears, and the server's shed counter equals
//     the number of 429s the client saw (nothing dropped silently).
//
// The run is journaled, and ends with the kill-and-restart check from the
// -restart scenario: crash the journal mid-stream, leave a torn record,
// recover a fresh server, and require every session's /history to be
// byte-identical to its pre-crash capture — under overload, acknowledged
// turns survive and shed turns leave no trace.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"fisql"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/server"
)

// overloadConfig carries the -overload-* flags.
type overloadConfig struct {
	Factor       int           // offered load as a multiple of capacity
	Duration     time.Duration // per phase
	AskLimit     int           // admission concurrency = server capacity
	Queue        int           // admission queue depth (0 = AskLimit)
	QueueTimeout time.Duration // shed a queued ask after this wait
	LLMLatency   time.Duration // injected per-model-call latency
	P99Factor    float64       // allowed overload p99 growth over baseline
	P99Slack     time.Duration // absolute allowance on top, for timer noise
}

// phaseResult aggregates one load phase.
type phaseResult struct {
	oks       []time.Duration // latencies of 200 asks, sorted ascending
	sheds     int64           // 429 responses
	badSheds  int64           // 429s with an invalid Retry-After or body
	others    int64           // any status that is neither 200 nor 429
	transport int64           // requests that failed below HTTP
	ids       []string        // session ids the phase created
}

// runOverload executes the scenario and returns the process exit code.
func runOverload(sys *fisql.System, corpus string, dbs []string,
	questionsByDB map[string][]string, cfg overloadConfig) int {
	// Real capacity: every ask reaches the model (no memo) and every model
	// call costs LLMLatency.
	innerClient := sys.Client
	sys.Client = &llm.Flaky{Inner: innerClient, Latency: cfg.LLMLatency}
	sys.Memo = nil

	dir, err := os.MkdirTemp("", "fisql-overload-*")
	if err != nil {
		log.Fatalf("overload scenario: %v", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sessions.journal")
	journal, err := persist.Open(path, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		log.Fatalf("overload scenario: open journal: %v", err)
	}
	m := obs.NewMetrics()
	sys.Observe(m.Registry)
	factories := map[string]server.SessionFactory{corpus: sysAdapter{sys}}
	ts := httptest.NewServer(server.New(factories,
		server.WithMetrics(m),
		server.WithJournal(journal),
		server.WithAdmission(server.AdmissionConfig{
			AskConcurrency: cfg.AskLimit,
			Queue:          cfg.Queue,
			QueueTimeout:   cfg.QueueTimeout,
		})))
	workers := cfg.AskLimit * cfg.Factor
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}}

	ph1 := overloadPhase(client, ts.URL, corpus, dbs, questionsByDB, cfg.AskLimit, cfg.Duration, 1)
	ph2 := overloadPhase(client, ts.URL, corpus, dbs, questionsByDB, workers, cfg.Duration, 1001)

	p99Base := percentile(ph1.oks, 99)
	p99Over := percentile(ph2.oks, 99)
	bound := time.Duration(float64(p99Base)*cfg.P99Factor) + cfg.P99Slack

	fails := 0
	check := func(ok bool, format string, args ...any) {
		if !ok {
			log.Printf("FAIL: "+format, args...)
			fails++
		}
	}
	check(ph1.transport == 0 && ph1.others == 0,
		"at-capacity phase had %d transport errors, %d unexpected statuses",
		ph1.transport, ph1.others)
	check(ph1.sheds == 0,
		"at-capacity phase shed %d asks; %d workers against an ask limit of %d should never queue past the limit",
		ph1.sheds, cfg.AskLimit, cfg.AskLimit)
	check(len(ph1.oks) > 0, "at-capacity phase completed no asks")
	check(ph2.transport == 0, "overload phase had %d transport errors", ph2.transport)
	check(ph2.others == 0,
		"overload produced %d responses that were neither 200 nor 429 — shedding must be the only failure mode",
		ph2.others)
	check(len(ph2.oks) > 0, "overload phase completed no asks")
	check(ph2.sheds > 0, "overload at %dx capacity shed nothing; admission control is not engaging", cfg.Factor)
	check(ph2.badSheds == 0,
		"%d shed responses had an invalid Retry-After or a malformed error body", ph2.badSheds)
	check(p99Over <= bound,
		"overload p99 %s exceeds bound %s (%.1fx at-capacity p99 %s + %s slack)",
		p99Over.Round(time.Microsecond), bound.Round(time.Microsecond),
		cfg.P99Factor, p99Base.Round(time.Microsecond), cfg.P99Slack)

	fails += checkOverloadMetrics(client, ts.URL, ph1.sheds+ph2.sheds)

	// Pre-crash captures, then the kill-and-restart durability check.
	ids := append(append([]string(nil), ph1.ids...), ph2.ids...)
	capture := make(map[string][]byte, len(ids))
	captureErrs := 0
	for _, sid := range ids {
		r, err := request(client, http.MethodGet, ts.URL+"/v1/sessions/"+sid+"/history", nil)
		if err != nil || r.status != http.StatusOK {
			log.Printf("FAIL: overload capture %s: status %d err %v", sid, r.status, err)
			captureErrs++
			continue
		}
		capture[sid] = r.body
	}
	fails += captureErrs
	ts.Close()
	if err := journal.Crash(); err != nil {
		log.Fatalf("overload scenario: crash: %v", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		log.Fatalf("overload scenario: %v", err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}); err != nil {
		log.Fatalf("overload scenario: torn append: %v", err)
	}
	f.Close()

	// Recovery replays every acknowledged ask; swap the latency injection
	// back out so replay runs at full speed (the injected delay models the
	// network, and answers are identical either way).
	sys.Client = innerClient
	t0 := time.Now()
	journal2, err := persist.Open(path, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		log.Fatalf("overload scenario: reopen journal: %v", err)
	}
	srv2 := server.New(factories, server.WithJournal(journal2))
	recovery := time.Since(t0)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer journal2.Close()
	mismatches := 0
	for _, sid := range ids {
		if _, ok := capture[sid]; !ok {
			continue
		}
		r, err := request(client, http.MethodGet, ts2.URL+"/v1/sessions/"+sid+"/history", nil)
		if err != nil || r.status != http.StatusOK {
			log.Printf("FAIL: overload recovered history %s: status %d err %v", sid, r.status, err)
			mismatches++
			continue
		}
		if !bytes.Equal(r.body, capture[sid]) {
			log.Printf("FAIL: overload history %s differs after recovery", sid)
			mismatches++
		}
	}
	fails += mismatches

	fmt.Printf("fisql-loadgen overload: corpus=%s ask_limit=%d factor=%dx phase=%s llm_latency=%s\n",
		corpus, cfg.AskLimit, cfg.Factor, cfg.Duration, cfg.LLMLatency)
	fmt.Printf("at-capacity: oks=%d sheds=%d p99=%s\n",
		len(ph1.oks), ph1.sheds, p99Base.Round(time.Microsecond))
	fmt.Printf("overload:    oks=%d sheds=%d p99=%s (bound %s)\n",
		len(ph2.oks), ph2.sheds, p99Over.Round(time.Microsecond), bound.Round(time.Microsecond))
	fmt.Printf("recovery=%s sessions=%d history_diffs=%d\n",
		recovery.Round(time.Millisecond), len(ids), mismatches)
	if fails > 0 {
		log.Printf("FAIL: overload scenario: %d checks failed", fails)
		return 1
	}
	return 0
}

// overloadPhase drives `workers` ask loops for d and aggregates outcomes.
func overloadPhase(client *http.Client, base, corpus string, dbs []string,
	questionsByDB map[string][]string, workers int, d time.Duration, seed int64) phaseResult {
	var mu sync.Mutex
	var res phaseResult
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			db := dbs[w%len(dbs)]
			questions := questionsByDB[db]
			if len(questions) == 0 {
				return
			}
			sid, err := createSession(client, base, corpus, db)
			if err != nil {
				mu.Lock()
				res.transport++
				mu.Unlock()
				return
			}
			askURL := base + "/v1/sessions/" + sid + "/ask"
			var local phaseResult
			for time.Now().Before(deadline) {
				q := questions[rng.Intn(len(questions))]
				t0 := time.Now()
				status, retryAfter, bodyOK, err := postAsk(client, askURL, q)
				lat := time.Since(t0)
				switch {
				case err != nil:
					local.transport++
				case status == http.StatusOK:
					local.oks = append(local.oks, lat)
				case status == http.StatusTooManyRequests:
					local.sheds++
					if n, err := strconv.Atoi(retryAfter); err != nil || n < 1 || !bodyOK {
						local.badSheds++
					}
					// Back off briefly. Not the full Retry-After hint: the
					// phase's job is to keep the server saturated, the hint's
					// validity is asserted above.
					time.Sleep(time.Millisecond)
				default:
					local.others++
				}
			}
			mu.Lock()
			res.oks = append(res.oks, local.oks...)
			res.sheds += local.sheds
			res.badSheds += local.badSheds
			res.others += local.others
			res.transport += local.transport
			res.ids = append(res.ids, sid)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	sort.Slice(res.oks, func(i, j int) bool { return res.oks[i] < res.oks[j] })
	return res
}

// postAsk posts one question and reports (status, Retry-After header,
// whether a non-200 body is the standard JSON error shape).
func postAsk(client *http.Client, url, question string) (status int, retryAfter string, bodyOK bool, err error) {
	r, err := request(client, http.MethodPost, url, map[string]string{"question": question})
	if err != nil {
		return 0, "", false, err
	}
	if r.status == http.StatusOK {
		return r.status, "", true, nil
	}
	var errBody struct {
		Error string `json:"error"`
	}
	bodyOK = json.Unmarshal(r.body, &errBody) == nil && errBody.Error != "" &&
		r.header.Get("Content-Type") == "application/json"
	return r.status, r.header.Get("Retry-After"), bodyOK, nil
}

// checkOverloadMetrics verifies /v1/metrics after the run: both forms
// well-formed (via scrapeMetrics), the admission series present, and the
// server's shed counter equal to the 429s the client counted. Returns the
// number of failed checks.
func checkOverloadMetrics(client *http.Client, base string, clientSheds int64) int {
	snap, err := scrapeMetrics(client, base)
	if err != nil {
		log.Fatalf("metrics scrape: %v", err) // malformed in-process output is a bug
	}
	fails := 0
	check := func(ok bool, format string, args ...any) {
		if !ok {
			log.Printf("FAIL: "+format, args...)
			fails++
		}
	}
	for _, name := range []string{
		"fisql_admission_ask_admitted_total",
		"fisql_admission_ask_shed_total",
	} {
		_, ok := snap.Counters[name]
		check(ok, "metrics snapshot is missing counter %s", name)
	}
	check(snap.Counters["fisql_admission_ask_shed_total"] == clientSheds,
		"server shed counter %d != client-observed 429s %d — responses were lost or double-counted",
		snap.Counters["fisql_admission_ask_shed_total"], clientSheds)
	_, ok := snap.Histograms["fisql_admission_ask_queue_seconds"]
	check(ok, "metrics snapshot is missing histogram fisql_admission_ask_queue_seconds")
	return fails
}
