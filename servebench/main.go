// Command servebench is the serving benchmark: it builds the aep System and
// the REST server in process, drives the server over loopback HTTP with two
// closed-loop clients on two connections, checks every answer against a
// reference script, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a separate traced run) as one JSON line.
//
//	servebench --workload correction --seed 1 --seconds 10 --trace 0
//	servebench spread RESULT...
//
// Workloads:
//
//   - memo-hot: short sessions of Zipf-popular questions after a warm-up
//     has put every question in the answer memo; exercises HTTP, the server
//     layer, the journal, pubsub and the memo.
//   - correction: every aep example as one session (ask, then up to two
//     rounds of annotator feedback with highlights), each pass on a fresh
//     memo and plan cache; exercises retrieval, prompts, the model, the
//     correction pipeline and the engine.
//   - correction-rows10: the same at ten times the rows, where engine
//     execution dominates.
//
// The server runs as the server command ships it, plus a journal: metrics
// on, exact retrieval, no LLM batcher, interval fsync. The traced run
// builds it without metrics and records spans from outside the program
// (see trace.go). Scratch files go under .bench_build in the working
// directory and are removed on exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"fisql"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/rag"
)

// setupReps is how many times a run times its set-up; setup_s is the
// median.
const setupReps = 7

// workload is one traffic mix.
type workload struct {
	rows     int
	memoHot  bool
	paperPin bool // the paper's tallies apply (native scale)
}

var workloads = map[string]workload{
	"memo-hot":          {rows: 1, memoHot: true},
	"correction":        {rows: 1, paperPin: true},
	"correction-rows10": {rows: 10},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := printSpread(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "memo-hot, correction or correction-rows10")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of each timed run in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --workload memo-hot|correction|correction-rows10, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := bench(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench runs one workload and returns its result; the human-readable
// report goes to out.
func bench(o options, out io.Writer) (*result, error) {
	w := workloads[o.workload]
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: System build, journal open and server.New, timed setupReps
	// times. The first System is kept to generate the reference script on,
	// the last one serves.
	var setups []float64
	var scriptSys *fisql.System
	var st *stack
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := fisql.NewExperiencePlatformSystemRows(w.rows)
		if err != nil {
			return nil, fmt.Errorf("build system: %w", err)
		}
		s, err := newServer(sys, filepath.Join(dir, fmt.Sprintf("journal-%d", i)), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupReps-1 {
			st = s
			break
		}
		if err := s.close(); err != nil {
			return nil, err
		}
		if i == 0 {
			scriptSys = sys
		}
	}
	sys := st.fac.sys
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	sc, err := buildScript(context.Background(), scriptSys, o.seed, w.rows)
	if err != nil {
		return nil, err
	}
	scriptSys = nil
	rec := record(o, w)
	fmt.Fprintf(out, "record %s\n", mustJSON(rec))
	fmt.Fprintf(out, "script %s\n", sc.tallies())

	if err := st.listen(); err != nil {
		return nil, err
	}
	untraced, win, err := measure(st, sc, o, w)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: untraced.attempted, Failed: untraced.failed, Metrics: map[string]metric{}}
	_, setup, _ := quartiles(setups)
	e2e := endToEnd(untraced, setup)
	report(out, "untraced", untraced)
	if !o.trace {
		// Heap in use once the samples are gone and a forced GC has run,
		// with the server and its caches still live.
		untraced.asks, untraced.feedbacks, untraced.sessions = nil, nil, nil
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e2e["live_heap_mb"] = metric{float64(ms.HeapInuse) / (1 << 20), "MB"}
		runtime.KeepAlive(st)
		res.Metrics = e2e
	}
	err = st.close()
	st = nil
	if err != nil {
		return nil, err
	}

	if o.trace {
		tr, err := newTracer()
		if err != nil {
			return nil, err
		}
		tr.llm = &timedClient{inner: sys.Client}
		sys.Client = tr.llm
		sys.Store.SetSearchObserver(tr.observeSearch)
		st, err = newServer(sys, filepath.Join(dir, "journal-traced"), tr)
		if err != nil {
			return nil, err
		}
		st.journal.SetFsyncObserver(tr.observeFsync)
		if err := st.listen(); err != nil {
			return nil, err
		}
		traced, twin, err := measure(st, sc, o, w)
		if err != nil {
			return nil, err
		}
		res.Metrics = perLayer(traced, twin, untraced, win, tr)
		report(out, "traced", traced)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		// The journal may still fsync while it closes; the observer's
		// memory goes only after.
		err = st.close()
		st = nil
		tr.free()
		if err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for name, m := range res.Metrics {
		names = append(names, name)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run whose warm-up failed has nothing to divide by.
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "metric %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

// bracket is the counters read at the start and end of a timed run.
type bracket struct {
	start, end counters
}

type counters struct {
	journal  persist.Stats
	rag      rag.Stats
	columnar int64
	llmCalls int64
	// scraped holds /v1/metrics counters; nil when the server runs without
	// metrics.
	scraped map[string]int64
}

func readCounters(st *stack) counters {
	sys := st.fac.sys
	c := counters{journal: st.journal.Stats(), rag: sys.Store.Stats(), columnar: columnarHits(sys.DS.DBs)}
	if st.tracer != nil {
		c.llmCalls = st.tracer.llm.calls.Load()
	}
	if st.metrics != nil {
		c.scraped = scrape(st.base)
	}
	return c
}

// scrape reads the counters of the server's /v1/metrics; nil on failure.
func scrape(base string) map[string]int64 {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if resp.StatusCode != 200 || json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return nil
	}
	return snap.Counters
}

// measure runs the workload's timed run on st and applies the self-checks
// that need the counters around it.
func measure(st *stack, sc *script, o options, w workload) (*run, bracket, error) {
	var win bracket
	onStart := func() {
		if st.tracer != nil {
			st.tracer.reset()
		}
		win.start = readCounters(st)
	}
	// With --trace 1 the untraced and the traced run share the seconds.
	dur := time.Duration(o.seconds) * time.Second
	if o.trace {
		dur /= 2
	}
	var r *run
	var err error
	if w.memoHot {
		r, err = memoHot(st, sc, o.seed, dur, onStart)
	} else {
		r, err = correction(st, sc, dur, onStart)
	}
	if err != nil {
		return nil, bracket{}, err
	}
	win.end = readCounters(st)
	if r.elapsed == 0 {
		return r, win, nil // the warm-up failed
	}
	if st.metrics != nil && (win.start.scraped == nil || win.end.scraped == nil) {
		r.fail("could not read /v1/metrics")
	}
	if !w.memoHot {
		want := sc.tallies()
		if w.paperPin {
			want = paperTallies
		}
		for _, t := range r.tallies {
			if t != want {
				r.fail("pass tallies %s, want %s", t, want)
				break
			}
		}
		if w.rows > 1 && win.end.columnar == win.start.columnar {
			r.fail("self-check: the columnar path served no query")
		}
	}
	return r, win, nil
}

// endToEnd computes the user-facing metrics of a run.
func endToEnd(r *run, setup float64) map[string]metric {
	return map[string]metric{
		"turns_per_s":    {rate(r), "1/s"},
		"ask_p50_ms":     {ms(r.asks.percentile(50)), "ms"},
		"ask_p99_ms":     {ms(r.asks.percentile(99)), "ms"},
		"session_p50_ms": {ms(r.sessions.percentile(50)), "ms"},
		"session_p99_ms": {ms(r.sessions.percentile(99)), "ms"},
		"setup_s":        {setup, "s"},
	}
}

// rate is the asks and feedback turns completed per second.
func rate(r *run) float64 { return float64(r.turnCount()) / r.elapsed.Seconds() }

// perLayer computes the per-layer metrics of a traced run. Pubsub events
// and render-cache hits come from the untraced run's /v1/metrics, which
// the traced server does not serve.
func perLayer(r *run, win bracket, untraced *run, uwin bracket, tr *tracer) map[string]metric {
	var handler, self, transport, other, render, prompt, gen, route, repair,
		correct, coreSelf, plan, exec samples
	var promptBytes []int
	var planned, executed, execErrs int64
	for _, t := range r.turns {
		var stages time.Duration
		for _, d := range t.stages {
			stages += d
		}
		cs := t.correct - t.correctStages
		handler = append(handler, t.handler)
		self = append(self, t.handler-stages-cs)
		transport = append(transport, t.rtt-t.handler)
		other = append(other, t.turn-t.rtt)
		for _, b := range t.prompts[:min(int(t.llmCalls), maxPrompts)] {
			promptBytes = append(promptBytes, int(b))
		}
		if t.correct > 0 {
			correct = append(correct, t.correct)
			coreSelf = append(coreSelf, cs)
		}
		for _, s := range []struct {
			stage obs.Stage
			into  *samples
		}{
			{obs.StageRender, &render}, {obs.StagePrompt, &prompt}, {obs.StageLLM, &gen},
			{obs.StageRoute, &route}, {obs.StageRepair, &repair}, {obs.StagePlan, &plan},
			{obs.StageExecute, &exec},
		} {
			if d := t.stages[s.stage]; d > 0 {
				*s.into = append(*s.into, d)
			}
		}
		if t.stages[obs.StagePlan] > 0 {
			planned++
			if t.execErr {
				execErrs++
			}
		}
		if t.stages[obs.StageExecute] > 0 {
			executed++
		}
	}
	turns := int64(r.turnCount())
	s, e := win.start, win.end
	us50 := func(x samples) metric { return metric{us(x.percentile(50)), "us"} }
	us99 := func(x samples) metric { return metric{us(x.percentile(99)), "us"} }
	sort.Ints(promptBytes)
	bytes50 := 0
	if len(promptBytes) > 0 {
		bytes50 = promptBytes[(len(promptBytes)-1)/2]
	}
	scraped := func(name string) int64 { return uwin.end.scraped[name] - uwin.start.scraped[name] }
	renderHits := scraped("fisql_render_cache_hits_total")
	tr.mu.Lock()
	searches, fsyncs := tr.searches, tr.fsyncs
	tr.mu.Unlock()
	tps, utps := rate(r), rate(untraced)
	return map[string]metric{
		"server.handler_us_p50":         us50(handler),
		"server.handler_us_p99":         us99(handler),
		"server.self_us_p50":            us50(self),
		"server.self_us_p99":            us99(self),
		"server.render_cache_hit_ratio": {ratio(renderHits, renderHits+scraped("fisql_render_cache_misses_total")), "ratio"},
		"http.transport_us_p50":         us50(transport),
		"assistant.memo_hit_ratio":      {ratio(r.memoHits, r.memoHits+r.memoMisses), "ratio"},
		"assistant.render_us_p50":       us50(render),
		"rag.retrieve_us_p50":           us50(searches),
		"rag.retrieve_us_p99":           us99(searches),
		"rag.searches_per_turn":         {ratio(e.rag.Searches-s.rag.Searches, turns), "1/turn"},
		"prompt.build_us_p50":           us50(prompt),
		"prompt.bytes_p50":              {float64(bytes50), "B"},
		"llm.generate_us_p50":           us50(gen),
		"llm.route_us_p50":              us50(route),
		"llm.repair_us_p50":             us50(repair),
		"llm.calls_per_turn":            {ratio(e.llmCalls-s.llmCalls, turns), "1/turn"},
		"core.correct_us_p50":           us50(correct),
		"core.self_us_p50":              us50(coreSelf),
		"engine.plan_us_p50":            us50(plan),
		"engine.execute_us_p50":         us50(exec),
		"engine.execute_us_p99":         us99(exec),
		"engine.plan_cache_hit_ratio":   {ratio(r.cacheHits, r.cacheHits+r.cacheMisses), "ratio"},
		"engine.columnar_ratio":         {ratio(e.columnar-s.columnar, executed), "ratio"},
		"engine.exec_error_ratio":       {ratio(execErrs, planned), "ratio"},
		"persist.bytes_per_turn":        {ratio(e.journal.Bytes-s.journal.Bytes, turns), "B/turn"},
		"persist.fsync_us_p50":          us50(fsyncs),
		"persist.fsyncs_per_s":          {float64(e.journal.Fsyncs-s.journal.Fsyncs) / r.elapsed.Seconds(), "1/s"},
		"persist.compactions":           {float64(e.journal.Compactions - s.journal.Compactions), "count"},
		"pubsub.events_per_turn":        {ratio(scraped("fisql_pubsub_published_total"), int64(untraced.turnCount())), "1/turn"},
		"trace.other_us_p50":            us50(other),
		"trace.overhead_pct":            {100 * (utps - tps) / utps, "%"},
	}
}

// report prints a run's latencies with their sample counts, the
// end-to-end figures the result line does not carry, and any failures.
func report(out io.Writer, label string, r *run) {
	fmt.Fprintf(out, "%s run: %d turns in %.2fs, %.2f turns/s, %d requests attempted, %d failed, error_ratio %.6f\n",
		label, r.turnCount(), r.elapsed.Seconds(), rate(r), r.attempted, r.failed, ratio(r.failed, r.attempted))
	for _, l := range []struct {
		name string
		s    samples
	}{{"ask", r.asks}, {"feedback", r.feedbacks}, {"session", r.sessions}} {
		if len(l.s) == 0 {
			continue
		}
		p99 := l.s.percentile(99)
		fmt.Fprintf(out, "  %-8s n=%-7d p50 %9.4f ms  p99 %9.4f ms  (%d beyond p99)\n",
			l.name, len(l.s), ms(l.s.percentile(50)), ms(p99), l.s.beyond(p99))
	}
	fmt.Fprintf(out, "  memo hits/misses %d/%d  plan cache hits/misses %d/%d\n",
		r.memoHits, r.memoMisses, r.cacheHits, r.cacheMisses)
	for _, t := range r.tallies[:min(len(r.tallies), 1)] {
		fmt.Fprintf(out, "  served tallies per pass (%d passes): %s\n", len(r.tallies), t)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "  FAIL %s\n", f)
		fmt.Fprintf(os.Stderr, "servebench: %s: %s\n", label, f)
	}
}

// record is the configuration every result carries, so each number can be
// regenerated.
func record(o options, w workload) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"commit": commit, "workload": o.workload, "seed": o.seed, "seconds": o.seconds,
		"trace": o.trace, "clients": numClients, "connections": numClients, "corpus": "aep",
		"rows": w.rows, "journal_fsync": persist.FsyncInterval.String(),
		"journal_compact_bytes": persist.DefaultCompactMinBytes,
		"server_metrics":        "on (untraced run), off (traced run)",
		"rag_index":             "exact", "llm_batcher": "off", "session_options": sessionOptions,
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// printSpread reads result files (a run's standard output; the last line
// is its result) and prints, per metric, the median, the quartiles and
// their distance as a share of the median.
func printSpread(out io.Writer, files []string) error {
	if len(files) < 2 {
		return errors.New("spread needs at least two result files")
	}
	values := map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		if !res.Correct {
			return fmt.Errorf("%s: run was not correct", f)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-32s %4s %14s %14s %14s %8s\n", "metric", "n", "q1", "median", "q3", "spread")
	for _, name := range names {
		v := values[name]
		q1, med, q3 := quartiles(v)
		fmt.Fprintf(out, "%-32s %4d %14.4f %14.4f %14.4f %8.4f\n", name, len(v), q1, med, q3, spread(v))
	}
	return nil
}
