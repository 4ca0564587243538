package fisql

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (see EXPERIMENTS.md for the paper-vs-measured record):
//
//	BenchmarkFigure2ZeroShotAccuracy   — Figure 2
//	BenchmarkSection41ErrorCollection  — §4.1 statistics
//	BenchmarkTable2FeedbackCorrection  — Table 2
//	BenchmarkFigure8FeedbackRounds     — Figure 8
//	BenchmarkTable3Highlighting        — Table 3
//
// plus ablations DESIGN.md calls out (RAG depth, router-vs-naive
// classification, metric strictness) and microbenchmarks of the hot
// substrates. Headline metrics are attached via b.ReportMetric, so
// `go test -bench=. -benchmem` prints the paper's numbers alongside the
// timing columns.

import (
	"context"
	"flag"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/engine"
	"fisql/internal/eval"
	"fisql/internal/feedback"
	"fisql/internal/llm"
	"fisql/internal/rag"
	"fisql/internal/sqlparse"
)

// benchWorkers bounds the evaluation worker pool used by the experiment
// drivers (0 = GOMAXPROCS, 1 = serial). Results are identical for every
// value; only wall-clock changes.
var benchWorkers = flag.Int("workers", 0, "evaluation worker goroutines for the experiment benchmarks (0 = GOMAXPROCS, 1 = serial)")

func benchGenOpts() eval.RunOptions { return eval.RunOptions{Workers: *benchWorkers} }

var (
	benchOnce sync.Once
	benchSp   *System
	benchAep  *System
	benchErr  error
)

func benchWorld(b *testing.B) (*System, *System) {
	b.Helper()
	benchOnce.Do(func() {
		benchSp, benchErr = NewSpiderSystem()
		if benchErr != nil {
			return
		}
		benchAep, benchErr = NewExperiencePlatformSystem()
	})
	if benchErr != nil {
		b.Fatalf("build corpora: %v", benchErr)
	}
	return benchSp, benchAep
}

func benchErrors(b *testing.B, sys *System) []eval.GenResult {
	b.Helper()
	res, _, err := eval.RunGenerationOpts(context.Background(), sys.Client, sys.DS, sys.K, benchGenOpts())
	if err != nil {
		b.Fatal(err)
	}
	return eval.Errors(res)
}

// BenchmarkFigure2ZeroShotAccuracy regenerates Figure 2: zero-shot NL2SQL
// accuracy on SPIDER vs the Experience Platform.
func BenchmarkFigure2ZeroShotAccuracy(b *testing.B) {
	sp, ae := benchWorld(b)
	ctx := context.Background()
	var spAcc, aeAcc eval.Accuracy
	for i := 0; i < b.N; i++ {
		var err error
		_, spAcc, err = eval.RunGenerationOpts(ctx, sp.Client, sp.DS, 0, benchGenOpts())
		if err != nil {
			b.Fatal(err)
		}
		_, aeAcc, err = eval.RunGenerationOpts(ctx, ae.Client, ae.DS, 0, benchGenOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(spAcc.Pct(), "spider_acc_%")
	b.ReportMetric(aeAcc.Pct(), "aep_acc_%")
}

// BenchmarkSection41ErrorCollection regenerates the §4.1 statistics: the
// Assistant's one-shot error counts and the annotated-error counts.
func BenchmarkSection41ErrorCollection(b *testing.B) {
	sp, ae := benchWorld(b)
	ctx := context.Background()
	var spErrs, aeErrs, annotated int
	for i := 0; i < b.N; i++ {
		spRes, _, err := eval.RunGenerationOpts(ctx, sp.Client, sp.DS, sp.K, benchGenOpts())
		if err != nil {
			b.Fatal(err)
		}
		aeRes, _, err := eval.RunGenerationOpts(ctx, ae.Client, ae.DS, ae.K, benchGenOpts())
		if err != nil {
			b.Fatal(err)
		}
		spErrs, aeErrs, annotated = 0, 0, 0
		for _, r := range eval.Errors(spRes) {
			spErrs++
			if r.Example.Annotatable {
				annotated++
			}
		}
		aeErrs = len(eval.Errors(aeRes))
	}
	b.ReportMetric(float64(spErrs), "spider_errors")
	b.ReportMetric(float64(annotated), "spider_annotated")
	b.ReportMetric(float64(aeErrs), "aep_errors")
}

// BenchmarkTable2FeedbackCorrection regenerates Table 2: % instances
// corrected after one feedback round per method and corpus.
func BenchmarkTable2FeedbackCorrection(b *testing.B) {
	sp, ae := benchWorld(b)
	spErrs := benchErrors(b, sp)
	aeErrs := benchErrors(b, ae)
	ctx := context.Background()
	cells := map[string]float64{}
	run := func(name string, sys *System, method Corrector, errs []eval.GenResult) {
		res, err := eval.RunCorrection(ctx, method, sys.DS, errs, eval.CorrectionOptions{Rounds: 1, Workers: *benchWorkers})
		if err != nil {
			b.Fatal(err)
		}
		cells[name] = res.Pct(1)
	}
	for i := 0; i < b.N; i++ {
		run("qr_aep", ae, ae.QueryRewrite(), aeErrs)
		run("qr_spider", sp, sp.QueryRewrite(), spErrs)
		run("norouting_spider", sp, sp.FISQL(Options{Routing: false}), spErrs)
		run("fisql_aep", ae, ae.FISQL(Options{Routing: true}), aeErrs)
		run("fisql_spider", sp, sp.FISQL(Options{Routing: true}), spErrs)
	}
	for name, v := range cells {
		b.ReportMetric(v, name+"_%")
	}
}

// BenchmarkFigure8FeedbackRounds regenerates Figure 8: correction over two
// feedback rounds on SPIDER for FISQL and FISQL(-Routing).
func BenchmarkFigure8FeedbackRounds(b *testing.B) {
	sp, _ := benchWorld(b)
	errs := benchErrors(b, sp)
	ctx := context.Background()
	var f, n eval.CorrectionResult
	for i := 0; i < b.N; i++ {
		var err error
		f, err = eval.RunCorrection(ctx, sp.FISQL(Options{Routing: true}), sp.DS, errs, eval.CorrectionOptions{Rounds: 2, Workers: *benchWorkers})
		if err != nil {
			b.Fatal(err)
		}
		n, err = eval.RunCorrection(ctx, sp.FISQL(Options{Routing: false}), sp.DS, errs, eval.CorrectionOptions{Rounds: 2, Workers: *benchWorkers})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.Pct(1), "fisql_r1_%")
	b.ReportMetric(f.Pct(2), "fisql_r2_%")
	b.ReportMetric(n.Pct(1), "norouting_r1_%")
	b.ReportMetric(n.Pct(2), "norouting_r2_%")
}

// BenchmarkTable3Highlighting regenerates Table 3: the effect of grounding
// feedback with highlights.
func BenchmarkTable3Highlighting(b *testing.B) {
	sp, ae := benchWorld(b)
	spErrs := benchErrors(b, sp)
	aeErrs := benchErrors(b, ae)
	ctx := context.Background()
	var aeP, aeH, spP, spH float64
	for i := 0; i < b.N; i++ {
		run := func(sys *System, errs []eval.GenResult, hl bool) float64 {
			res, err := eval.RunCorrection(ctx, sys.FISQL(Options{Routing: true, Highlights: hl}),
				sys.DS, errs, eval.CorrectionOptions{Rounds: 1, Highlights: hl, Workers: *benchWorkers})
			if err != nil {
				b.Fatal(err)
			}
			return res.Pct(1)
		}
		aeP = run(ae, aeErrs, false)
		aeH = run(ae, aeErrs, true)
		spP = run(sp, spErrs, false)
		spH = run(sp, spErrs, true)
	}
	b.ReportMetric(aeP, "fisql_aep_%")
	b.ReportMetric(aeH, "highlight_aep_%")
	b.ReportMetric(spP, "fisql_spider_%")
	b.ReportMetric(spH, "highlight_spider_%")
}

// ----------------------------------------------------------------------------
// Parallel harness scaling

// workerCounts is the sweep for the scaling benchmarks: powers of two up to
// and including GOMAXPROCS.
func workerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for w := 2; w < max; w *= 2 {
		counts = append(counts, w)
	}
	if max > 1 {
		counts = append(counts, max)
	}
	return counts
}

// BenchmarkGenerationWorkers measures the parallel evaluation harness: the
// same SPIDER Assistant run sharded over growing worker pools. Every row
// produces identical results (TestParallelGenerationMatchesSerial in
// internal/eval asserts it); only wall-clock changes.
func BenchmarkGenerationWorkers(b *testing.B) {
	sp, _ := benchWorld(b)
	ctx := context.Background()
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := eval.RunGenerationOpts(ctx, sp.Client, sp.DS, sp.K, eval.RunOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorrectionWorkers measures the two-round Figure 8 correction
// protocol over growing worker pools.
func BenchmarkCorrectionWorkers(b *testing.B) {
	sp, _ := benchWorld(b)
	errs := benchErrors(b, sp)
	ctx := context.Background()
	method := sp.FISQL(Options{Routing: true})
	for _, workers := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := eval.RunCorrection(ctx, method, sp.DS, errs,
					eval.CorrectionOptions{Rounds: 2, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ----------------------------------------------------------------------------
// Ablations

// BenchmarkAblationRAGDepth sweeps the number of retrieved demonstrations
// and reports one-shot accuracy per k — the design choice behind the
// zero-shot→RAG gap.
func BenchmarkAblationRAGDepth(b *testing.B) {
	sp, _ := benchWorld(b)
	ctx := context.Background()
	for _, k := range []int{0, 1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var acc eval.Accuracy
			for i := 0; i < b.N; i++ {
				var err error
				_, acc, err = eval.RunGenerationOpts(ctx, sp.Client, sp.DS, k, benchGenOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc.Pct(), "acc_%")
		})
	}
}

// BenchmarkAblationRouterAccuracy compares the few-shot router against the
// naive keyword classifier on every piece of annotated feedback — the
// mechanism behind the FISQL vs FISQL(-Routing) gap.
func BenchmarkAblationRouterAccuracy(b *testing.B) {
	sp, _ := benchWorld(b)
	annot := eval.NewAnnotator(sp.DS)
	type probe struct {
		text string
		op   dataset.Op
	}
	var probes []probe
	for _, e := range sp.DS.AnnotatedErrors() {
		fb, ok := annot.Annotate(e, e.WrongSQL(), 1, false)
		if !ok {
			continue
		}
		probes = append(probes, probe{text: fb.Text, op: fb.Op})
	}
	var routedOK, naiveOK int
	for i := 0; i < b.N; i++ {
		routedOK, naiveOK = 0, 0
		for _, p := range probes {
			if feedback.ClassifyRouted(p.text) == p.op {
				routedOK++
			}
			if feedback.ClassifyNaive(p.text) == p.op {
				naiveOK++
			}
		}
	}
	n := float64(len(probes))
	b.ReportMetric(100*float64(routedOK)/n, "router_acc_%")
	b.ReportMetric(100*float64(naiveOK)/n, "naive_acc_%")
}

// BenchmarkAblationDynamicDemos compares fixed per-op repair demonstrations
// against similarity-selected ones (the paper's §5 routing extension):
// correction rate must not regress while prompt tokens shrink.
func BenchmarkAblationDynamicDemos(b *testing.B) {
	sp, _ := benchWorld(b)
	errs := benchErrors(b, sp)
	ctx := context.Background()
	run := func(dynamic int) (float64, int) {
		stats := &llm.Stats{}
		metered := &llm.Metered{Inner: sp.Client, Stats: stats}
		method := &FISQL{Client: metered, DS: sp.DS, Store: sp.Store, K: sp.K,
			Routing: true, DynamicDemos: dynamic}
		res, err := eval.RunCorrection(ctx, method, sp.DS, errs, eval.CorrectionOptions{Rounds: 1, Workers: *benchWorkers})
		if err != nil {
			b.Fatal(err)
		}
		pt, _ := stats.Tokens()
		return res.Pct(1), pt
	}
	var fixedPct, dynPct float64
	var fixedTokens, dynTokens int
	for i := 0; i < b.N; i++ {
		fixedPct, fixedTokens = run(0)
		dynPct, dynTokens = run(1)
	}
	b.ReportMetric(fixedPct, "fixed_corrected_%")
	b.ReportMetric(dynPct, "dynamic_corrected_%")
	b.ReportMetric(float64(fixedTokens), "fixed_prompt_tokens")
	b.ReportMetric(float64(dynTokens), "dynamic_prompt_tokens")
}

// BenchmarkAblationMetricStrictness contrasts execution-match accuracy with
// exact-string match over the Assistant run — motivating the execution
// metric the paper (and this harness) uses.
func BenchmarkAblationMetricStrictness(b *testing.B) {
	sp, _ := benchWorld(b)
	ctx := context.Background()
	var execAcc, strAcc float64
	for i := 0; i < b.N; i++ {
		res, acc, err := eval.RunGenerationOpts(ctx, sp.Client, sp.DS, sp.K, benchGenOpts())
		if err != nil {
			b.Fatal(err)
		}
		strOK := 0
		for _, r := range res {
			if r.SQL == r.Example.Gold {
				strOK++
			}
		}
		execAcc = acc.Pct()
		strAcc = 100 * float64(strOK) / float64(len(res))
	}
	b.ReportMetric(execAcc, "exec_match_%")
	b.ReportMetric(strAcc, "string_match_%")
}

// ----------------------------------------------------------------------------
// Substrate microbenchmarks

// BenchmarkEngineJoinQuery measures executing a three-way join with
// grouping on the concert database.
func BenchmarkEngineJoinQuery(b *testing.B) {
	sp, _ := benchWorld(b)
	db := sp.DS.DBs["concert_singer"]
	sql := "SELECT country, COUNT(*) FROM singer GROUP BY country ORDER BY COUNT(*) DESC"
	ex := engine.NewExecutor(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParser measures parsing a nested SELECT.
func BenchmarkParser(b *testing.B) {
	sql := "SELECT name, song_release_year FROM singer WHERE age = (SELECT MIN(age) FROM singer) ORDER BY name ASC LIMIT 10"
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.ParseSelect(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrieval measures a top-8 TF-IDF search over the SPIDER pool.
func BenchmarkRetrieval(b *testing.B) {
	sp, _ := benchWorld(b)
	store := rag.NewStore(sp.DS.Demos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Search("How many singers are there?", "concert_singer", 8)
	}
}

// ----------------------------------------------------------------------------
// Retrieval at scale

// benchRetrievalHNSW is the latency-oriented configuration the scaling
// benchmark runs: a lean graph tuned for near-flat p50 across pool sizes.
// It trades recall for latency (recall@8 vs the exact scan is reported by
// the benchmark per arm) and is deliberately lighter than the serving
// default, which favors recall and keeps benchmark-corpus pools exact; the
// benchmark's subject is the scaling shape, and the exact rerank on top of
// the candidate set is identical in both setups.
var benchRetrievalHNSW = rag.HNSWConfig{M: 8, EfConstruction: 80, EfSearch: 10, EfDescent: 1}

// benchRetrievalDB is the largest aep partition; every query probes it.
const benchRetrievalDB = "experience_platform"

type retrievalArm struct {
	exact, hnsw *rag.Store
	buildNs     float64 // hnsw index build
	recallAt8   float64 // hnsw vs exact top-8 overlap
	exactP50Ns  float64 // min-of-rounds p50 of the linear scan
}

var (
	benchRetrievalMu   sync.Mutex
	benchRetrievalArms = map[int]*retrievalArm{}
)

// benchRetrievalArm builds (once per pool multiplier — the 1000x build costs
// ~20s) the paired exact and HNSW stores plus the baseline measurements the
// timed loop reports alongside its own numbers.
func benchRetrievalArm(b *testing.B, ae *System, qs []string, mult int) *retrievalArm {
	b.Helper()
	benchRetrievalMu.Lock()
	defer benchRetrievalMu.Unlock()
	if arm := benchRetrievalArms[mult]; arm != nil {
		return arm
	}
	demos := dataset.ScaleDemos(ae.DS.Demos, mult)
	arm := &retrievalArm{}
	arm.exact = rag.NewStoreOptions(demos, rag.Options{Index: rag.IndexExact})
	t0 := time.Now()
	arm.hnsw = rag.NewStoreOptions(demos, rag.Options{Index: rag.IndexHNSW, HNSW: benchRetrievalHNSW})
	arm.buildNs = float64(time.Since(t0).Nanoseconds())
	match, total := 0, 0
	for _, q := range qs { // doubles as the warm-up pass for both stores
		want := arm.exact.Search(q, benchRetrievalDB, 8)
		got := map[string]bool{}
		for _, r := range arm.hnsw.Search(q, benchRetrievalDB, 8) {
			got[r.Demo.Question] = true
		}
		for _, r := range want {
			total++
			if got[r.Demo.Question] {
				match++
			}
		}
	}
	arm.recallAt8 = float64(match) / float64(total)
	rounds := 5
	if mult >= 1000 {
		rounds = 2 // one linear-scan round is ~4s at 1000x; p50 is stable
	}
	arm.exactP50Ns = math.Inf(1)
	for r := 0; r < rounds; r++ {
		var samples []float64
		for _, q := range qs {
			t := time.Now()
			arm.exact.Search(q, benchRetrievalDB, 8)
			samples = append(samples, float64(time.Since(t).Nanoseconds()))
		}
		sort.Float64s(samples)
		arm.exactP50Ns = math.Min(arm.exactP50Ns, samples[len(samples)/2])
	}
	benchRetrievalArms[mult] = arm
	return arm
}

// BenchmarkRetrievalScale is the paired scaling benchmark behind
// BENCH_retrieval.json: top-8 retrieval from the aep demonstration pool at
// 1x/32x/1000x its native size, linear scan vs HNSW. Reported per arm:
// hnsw p50/p99 over every timed search, the exact-scan p50 (min of
// per-round percentiles — the scan is too slow at 1000x for a long run, so
// the estimator rejects background-load spikes instead), the hnsw index
// build time and recall@8 against the exact scan. The 1000x arm (a ~20s
// index build and a multi-second linear-scan baseline) is skipped under
// -short; CI smoke runs the small arms only.
func BenchmarkRetrievalScale(b *testing.B) {
	_, ae := benchWorld(b)
	var qs []string
	for _, e := range ae.DS.Examples {
		qs = append(qs, e.Question)
	}
	mults := []int{1, 32}
	if !testing.Short() {
		mults = append(mults, 1000)
	}
	for _, mult := range mults {
		b.Run(fmt.Sprintf("pool=%dx", mult), func(b *testing.B) {
			arm := benchRetrievalArm(b, ae, qs, mult)
			samples := make([]float64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				t := time.Now()
				arm.hnsw.Search(q, benchRetrievalDB, 8)
				samples = append(samples, float64(time.Since(t).Nanoseconds()))
			}
			b.StopTimer()
			sort.Float64s(samples)
			p50 := samples[len(samples)/2]
			p99 := samples[len(samples)*99/100]
			b.ReportMetric(p50, "hnsw_p50_ns")
			b.ReportMetric(p99, "hnsw_p99_ns")
			b.ReportMetric(arm.exactP50Ns, "exact_p50_ns")
			b.ReportMetric(arm.exactP50Ns/p50, "speedup_p50")
			b.ReportMetric(arm.recallAt8, "recall_at_8")
			b.ReportMetric(arm.buildNs/1e6, "build_ms")
		})
	}
}

// BenchmarkRepair measures one feedback-repair LLM round trip.
func BenchmarkRepair(b *testing.B) {
	_, ae := benchWorld(b)
	ctx := context.Background()
	method := ae.FISQL(Options{Routing: true})
	var e *Example
	for _, cand := range ae.DS.AnnotatedErrors() {
		if len(cand.Traps) == 1 && !cand.Traps[0].Misaligned && !cand.Traps[0].Vague {
			e = cand
			break
		}
	}
	if e == nil {
		b.Fatal("no suitable example")
	}
	annot := eval.NewAnnotator(ae.DS)
	fb, ok := annot.Annotate(e, e.WrongSQL(), 1, false)
	if !ok {
		b.Fatal("no feedback")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := method.Correct(ctx, e.DB, e.Question, e.WrongSQL(), fb); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------------------------------
// Compile-once engine micro-benchmarks

// benchJoinDB builds an orders/customers pair sized so the nested-loop join
// does rows*customers ON evaluations while the hash join does one build +
// one probe per row.
func benchJoinDB(b *testing.B, orders, customers int) *engine.Database {
	b.Helper()
	db := engine.NewDatabase("bench_join")
	if err := db.LoadScript("CREATE TABLE customers (id INT, name TEXT);\nCREATE TABLE orders (id INT, cust_id INT, total INT);"); err != nil {
		b.Fatal(err)
	}
	ct, _ := db.Table("customers")
	for i := 0; i < customers; i++ {
		ct.Rows = append(ct.Rows, []engine.Value{engine.Int(int64(i)), engine.Text(fmt.Sprintf("c%d", i))})
	}
	ot, _ := db.Table("orders")
	for i := 0; i < orders; i++ {
		ot.Rows = append(ot.Rows, []engine.Value{engine.Int(int64(i)), engine.Int(int64(i % customers)), engine.Int(int64(i * 7 % 100))})
	}
	return db
}

// BenchmarkJoinNestedVsHash compares the O(n·m) nested loop with the hash
// equi-join on the same 2000x500 equality join.
func BenchmarkJoinNestedVsHash(b *testing.B) {
	db := benchJoinDB(b, 2000, 500)
	sql := "SELECT COUNT(*) FROM orders JOIN customers ON orders.cust_id = customers.id"
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("nested", func(b *testing.B) {
		ex := engine.NewExecutor(db)
		ex.SetHashJoin(false)
		for i := 0; i < b.N; i++ {
			if _, err := ex.Select(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		ex := engine.NewExecutor(db)
		for i := 0; i < b.N; i++ {
			if _, err := ex.Select(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanCacheHit compares re-parsing+planning a query per execution
// against serving the plan from a shared engine.Cache.
func BenchmarkPlanCacheHit(b *testing.B) {
	sp, _ := benchWorld(b)
	db := sp.DS.DBs["concert_singer"]
	sql := "SELECT st.name, c.concert_name FROM concert AS c JOIN stadium AS st ON c.stadium_id = st.stadium_id WHERE c.year = 2014"
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.NewExecutor(db).Query(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := engine.NewCache(0)
		for i := 0; i < b.N; i++ {
			if _, err := cache.Query(db, sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUncorrelatedSubquery times the two query shapes behind the
// execute tail of the ten-times-rows corpus: a comparison against a scalar
// MAX subquery and a NOT IN over another table's key column. Neither
// subquery reads the outer row, so each runs once per query (the NOT IN
// probes a hash set) instead of once per outer row.
func BenchmarkUncorrelatedSubquery(b *testing.B) {
	sys, err := NewExperiencePlatformSystemRows(10)
	if err != nil {
		b.Fatal(err)
	}
	db := sys.DS.DBs["experience_platform"]
	for _, c := range []struct{ name, sql string }{
		{"scalar-max", "SELECT segment_name FROM hkg_dim_segment WHERE profile_count = (SELECT MAX(profile_count) FROM hkg_dim_segment)"},
		{"not-in", "SELECT segment_name FROM hkg_dim_segment WHERE segment_id NOT IN (SELECT segment_id FROM hkg_fact_activation)"},
	} {
		p, err := engine.Prepare(db, c.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			ex := engine.NewExecutor(db)
			for i := 0; i < b.N; i++ {
				if _, err := ex.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaledOrderGroup times the slowest served shapes of the
// ten-times-rows corpus once its subqueries run once per query: ORDER BY a
// column the statement does not select, over 300-710 rows, and GROUP BY
// over a near-unique key. The sort runs over an int32 permutation with the
// keys read from the typed column arrays; the groups share one backing
// array and one flat array of aggregate values.
func BenchmarkScaledOrderGroup(b *testing.B) {
	sys, err := NewExperiencePlatformSystemRows(10)
	if err != nil {
		b.Fatal(err)
	}
	db := sys.DS.DBs["experience_platform"]
	for _, c := range []struct{ name, sql string }{
		{"order-segment", "SELECT segment_status FROM hkg_dim_segment ORDER BY profile_count DESC"},
		{"order-profile", "SELECT merge_policy FROM hkg_fact_profile ORDER BY identity_count ASC"},
		{"group-count", "SELECT dataset_name, COUNT(*) FROM hkg_dim_dataset GROUP BY dataset_name"},
		{"group-having", "SELECT segment_name FROM hkg_dim_segment GROUP BY segment_name HAVING COUNT(*) > 2"},
	} {
		p, err := engine.Prepare(db, c.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			ex := engine.NewExecutor(db)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ----------------------------------------------------------------------------
// Columnar execution benchmarks
//
// Each benchmark runs the same prepared plan on two executors — columnar
// path enabled (the default) and disabled — so the timing difference is the
// vectorized executor alone. Sizes sweep 1x (the corpus's native scale,
// where results must at least not regress) to 100x (the "-rows 100" scale
// the columnar layout exists for).

// benchColumnarDB builds one wide table with deterministic synthetic data:
// an INT key, a low-cardinality TEXT group, a spread INT measure and a REAL
// measure with NULLs every 17th row.
func benchColumnarDB(b *testing.B, rows int) *engine.Database {
	b.Helper()
	db := engine.NewDatabase("bench_columnar")
	if err := db.LoadScript("CREATE TABLE t (id INT, grp TEXT, val INT, score REAL);"); err != nil {
		b.Fatal(err)
	}
	tt, _ := db.Table("t")
	for i := 0; i < rows; i++ {
		score := engine.Float(float64(i%1000) / 3.0)
		if i%17 == 0 {
			score = engine.Null()
		}
		tt.Rows = append(tt.Rows, []engine.Value{
			engine.Int(int64(i)),
			engine.Text(fmt.Sprintf("g%02d", i%13)),
			engine.Int(int64(i * 7919 % 10007)),
			score,
		})
	}
	return db
}

// benchColumnarArms times one query on the row and columnar executors and
// asserts they produce identical results before measuring.
func benchColumnarArms(b *testing.B, db *engine.Database, sql string) {
	b.Helper()
	p, err := engine.Prepare(db, sql)
	if err != nil {
		b.Fatal(err)
	}
	exRow := engine.NewExecutor(db)
	exRow.SetColumnar(false)
	exCol := engine.NewExecutor(db)
	want, err := exRow.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	got, err := exCol.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	if !engine.EqualResults(want, got) {
		b.Fatalf("row/columnar divergence for %q", sql)
	}
	b.Run("row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exRow.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exCol.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColumnarScanFilter measures a selective predicate scan: WHERE
// masks over typed arrays versus per-row tree evaluation.
func BenchmarkColumnarScanFilter(b *testing.B) {
	for _, rows := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := benchColumnarDB(b, rows)
			benchColumnarArms(b, db,
				"SELECT id FROM t WHERE val > 9700 AND grp <> 'g03'")
		})
	}
}

// BenchmarkColumnarAggregate measures grouped aggregation: single-column
// hash grouping plus typed folds versus per-row env grouping and per-group
// argument re-evaluation.
func BenchmarkColumnarAggregate(b *testing.B) {
	for _, rows := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := benchColumnarDB(b, rows)
			benchColumnarArms(b, db,
				"SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(score), MAX(score) FROM t GROUP BY grp ORDER BY grp")
		})
	}
}

// BenchmarkColumnarGlobalAgg measures the whole-table aggregate shape that
// dominates the corpus's COUNT questions.
func BenchmarkColumnarGlobalAgg(b *testing.B) {
	db := benchColumnarDB(b, 100000)
	benchColumnarArms(b, db, "SELECT COUNT(*), AVG(val) FROM t WHERE score IS NOT NULL")
}

// BenchmarkColumnarCorpus100x replays the Experience-Platform scan, filter,
// aggregate and join gold queries against the corpus scaled to 100x its base
// rows — the end-to-end view of the same comparison. Golds with subqueries
// are excluded: the vectorized path evaluates a subquery through the row
// path's own generic code, so they only add identical work to both arms.
func BenchmarkColumnarCorpus100x(b *testing.B) {
	ds, err := aep.BuildRows(100)
	if err != nil {
		b.Fatal(err)
	}
	type pq struct {
		db   *engine.Database
		plan *engine.Plan
	}
	var plans []pq
	for _, e := range ds.Examples {
		if strings.Contains(e.Gold, "(SELECT") {
			continue
		}
		db := ds.DBs[e.DB]
		p, err := engine.Prepare(db, e.Gold)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, pq{db: db, plan: p})
	}
	if len(plans) == 0 {
		b.Fatal("no subquery-free gold queries")
	}
	run := func(b *testing.B, columnar bool) {
		exs := map[*engine.Database]*engine.Executor{}
		for _, q := range plans {
			if _, ok := exs[q.db]; !ok {
				ex := engine.NewExecutor(q.db)
				ex.SetColumnar(columnar)
				exs[q.db] = ex
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range plans {
				if _, err := exs[q.db].Run(q.plan); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("row", func(b *testing.B) { run(b, false) })
	b.Run("columnar", func(b *testing.B) { run(b, true) })
}

// BenchmarkLikeMatch measures a LIKE scan with a backtracking-heavy pattern;
// the iterative matcher keeps this linear where the old recursive one was
// exponential in the number of %-groups.
func BenchmarkLikeMatch(b *testing.B) {
	db := engine.NewDatabase("bench_like")
	if err := db.LoadScript("CREATE TABLE t (s TEXT);"); err != nil {
		b.Fatal(err)
	}
	tt, _ := db.Table("t")
	for i := 0; i < 500; i++ {
		tt.Rows = append(tt.Rows, []engine.Value{engine.Text(fmt.Sprintf("alpha%dbetaaaaaaaaaaaagamma%d", i, i*3))})
	}
	sql := "SELECT COUNT(*) FROM t WHERE s LIKE '%a%a%a%a%a%a%a%a%gamma%'"
	ex := engine.NewExecutor(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}
