// Package fisql is the public API of the FISQL reproduction: an interactive
// framework that refines SQL generation through natural-language feedback
// and highlights, layered on an LLM-based NL2SQL assistant.
//
// The package wires together the building blocks under internal/ and
// exposes them through aliases, so downstream users program against one
// import path:
//
//	sys, _ := fisql.NewSpiderSystem()
//	sess := sys.Session("concert_singer", fisql.Options{Routing: true})
//	ans, _ := sess.Ask(ctx, "How many singers are there?")
//	ans, _ = sess.Feedback(ctx, "we are in 2024", nil)
//
// Two benchmark systems ship ready-made: the SPIDER-like open-domain corpus
// and the Experience-Platform closed-domain corpus, both served by a
// deterministic simulated LLM (see DESIGN.md for the substitution
// rationale). Plugging a real OpenAI-compatible client behind the Client
// interface swaps the simulation out without touching the pipeline.
package fisql

import (
	"fmt"
	"time"

	"fisql/internal/assistant"
	"fisql/internal/core"
	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/dataset/spider"
	"fisql/internal/engine"
	"fisql/internal/eval"
	"fisql/internal/feedback"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/rag"
)

// Re-exported building blocks. The aliases keep one import path for users
// while the implementations live in internal packages.
type (
	// Client is the chat-completion interface the pipeline calls.
	Client = llm.Client
	// Sim is the deterministic simulated model.
	Sim = llm.Sim
	// Dataset is a benchmark corpus: schemas, databases, examples, demos.
	Dataset = dataset.Dataset
	// Example is one benchmark item.
	Example = dataset.Example
	// Assistant produces the four user-facing outputs of the paper's
	// Figure 4.
	Assistant = assistant.Assistant
	// Answer is the Assistant's response.
	Answer = assistant.Answer
	// Session is an interactive ask/feedback conversation.
	Session = core.Session
	// Corrector is a feedback-incorporation method.
	Corrector = core.Corrector
	// FISQL is the routed feedback pipeline (the paper's contribution).
	FISQL = core.FISQL
	// QueryRewrite is the rewrite-and-regenerate baseline.
	QueryRewrite = core.QueryRewrite
	// Feedback is one round of user feedback.
	Feedback = feedback.Feedback
	// Highlight grounds feedback to a span of the SQL text.
	Highlight = feedback.Highlight
	// Result is an executed query's result set.
	Result = engine.Result
	// Cache is a shared parse+plan cache for repeated query execution.
	Cache = engine.Cache
	// AnswerMemo is a shared cross-session cache of finished Answers with
	// singleflight collapsing of concurrent identical questions.
	AnswerMemo = assistant.AnswerMemo
	// Accuracy is a correct/total tally.
	Accuracy = eval.Accuracy
	// CorrectionResult is a method's multi-round correction outcome.
	CorrectionResult = eval.CorrectionResult
)

// System bundles a corpus with a model client and retrieval store.
type System struct {
	DS     *Dataset
	Client Client
	Store  *rag.Store
	// K is the number of retrieved demonstrations per prompt.
	K int
	// Cache is the system-wide parse+plan cache. Every Assistant (and thus
	// every session, including the server's) shares it, so concurrent users
	// asking the same questions — or one user iterating on feedback — reuse
	// each query's plan. Safe for concurrent use.
	Cache *Cache
	// Memo is the system-wide answer memo: fresh questions are pure in
	// (db, question), so every session shares finished Answers and a
	// thundering herd of identical questions runs the pipeline once
	// (singleflight). Feedback turns are never memoized — they depend on
	// per-session history. Set to nil before creating sessions when the
	// Client is non-deterministic (a real sampled LLM). Safe for concurrent
	// use.
	Memo *AnswerMemo
	// FoldFeedback makes every session fold its successful corrections back
	// into the retrieval store as new demonstrations (the store dedups), so
	// the demonstration library learns from live traffic. Leave off for
	// reproducing the paper's numbers — a growing pool shifts retrieval.
	FoldFeedback bool
}

// SetDemoIndex rebuilds the retrieval store over the corpus demonstrations
// with the named index ("exact" — the default linear scan — or "hnsw", the
// sublinear graph index with exact rerank). Call before creating assistants
// or sessions; they capture the store at construction.
func (s *System) SetDemoIndex(kind string) error {
	k, ok := rag.ParseIndexKind(kind)
	if !ok {
		return fmt.Errorf("unknown demo index %q (want %q or %q)", kind, rag.IndexExact, rag.IndexHNSW)
	}
	s.Store = rag.NewStoreOptions(s.DS.Demos, rag.Options{Index: k})
	return nil
}

// Observe registers the system's cache statistics on a metrics registry:
// plan-cache and answer-memo hit/miss counters plus live-entry gauges. The
// sources are the always-on atomic tallies the caches keep anyway, read at
// scrape time — the serving path pays nothing. Registering two systems
// (spider + aep) on one registry sums their series. A nil registry is a
// no-op.
func (s *System) Observe(r *obs.Registry) {
	if r == nil {
		return
	}
	if c := s.Cache; c != nil {
		r.CounterFunc("fisql_plan_cache_hits_total", func() int64 { h, _ := c.Stats(); return h })
		r.CounterFunc("fisql_plan_cache_misses_total", func() int64 { _, m := c.Stats(); return m })
		r.GaugeFunc("fisql_plan_cache_entries", func() int64 { return int64(c.Len()) })
	}
	if m := s.Memo; m != nil {
		r.CounterFunc("fisql_answer_memo_hits_total", func() int64 { h, _ := m.Stats(); return h })
		r.CounterFunc("fisql_answer_memo_misses_total", func() int64 { _, mi := m.Stats(); return mi })
		r.GaugeFunc("fisql_answer_memo_entries", func() int64 { return int64(m.Len()) })
	}
	if st := s.Store; st != nil {
		// Retrieval-store counters: search/hit volume, the feedback-fold
		// insert rate (inserts + dedup skips), live library size, and the
		// index-probe count that proves which index implementation is
		// actually serving (the CI differential gate reads the same source).
		r.CounterFunc("fisql_rag_searches_total", func() int64 { return st.Stats().Searches })
		r.CounterFunc("fisql_rag_hits_total", func() int64 { return st.Stats().Hits })
		r.CounterFunc("fisql_rag_inserts_total", func() int64 { return st.Stats().Inserts })
		r.CounterFunc("fisql_rag_dup_skips_total", func() int64 { return st.Stats().DupSkips })
		r.CounterFunc("fisql_rag_index_probes_total", func() int64 { return st.Stats().IndexProbes })
		r.GaugeFunc("fisql_rag_entries", func() int64 { return int64(st.Len()) })
		lat := r.Histogram("fisql_rag_search_seconds", nil)
		st.SetSearchObserver(func(d time.Duration) { lat.Observe(d) })
	}
	if s.DS != nil && len(s.DS.DBs) > 0 {
		// Engine columnar-execution counters, summed across the corpus's
		// databases (each Database keeps its own atomic tallies).
		dbs := make([]*engine.Database, 0, len(s.DS.DBs))
		for _, db := range s.DS.DBs {
			dbs = append(dbs, db)
		}
		r.CounterFunc("fisql_engine_columnar_hits_total", func() int64 {
			var n int64
			for _, db := range dbs {
				h, _ := db.ColumnarStats()
				n += h
			}
			return n
		})
		r.CounterFunc("fisql_engine_columnar_fallbacks_total", func() int64 {
			var n int64
			for _, db := range dbs {
				_, f := db.ColumnarStats()
				n += f
			}
			return n
		})
	}
}

// Options configures a session's correction method.
type Options struct {
	// Routing enables feedback-type identification (on in FISQL, off in
	// the -Routing ablation).
	Routing bool
	// Highlights forwards user highlight spans to the model.
	Highlights bool
	// DynamicDemos, when positive, selects that many routed repair
	// demonstrations by similarity to the feedback instead of the fixed
	// per-operation set (the paper's §5 routing extension).
	DynamicDemos int
}

// NewSpiderSystem builds the SPIDER-like benchmark served by the simulated
// model.
func NewSpiderSystem() (*System, error) { return NewSpiderSystemRows(1) }

// NewSpiderSystemRows builds the SPIDER-like benchmark with every database
// scaled to rows times its base row count (rows <= 1 is the standard
// corpus). Scaling deterministically appends table rows — questions, gold
// SQL and demonstrations are byte-identical at any multiplier — so it
// multiplies engine scan work; execution-match accuracy can shift slightly
// at scale because query results are computed over the extra rows.
func NewSpiderSystemRows(rows int) (*System, error) {
	ds, err := spider.BuildRows(rows)
	if err != nil {
		return nil, err
	}
	return NewSystem(ds, llm.NewSim(ds)), nil
}

// NewExperiencePlatformSystem builds the closed-domain Experience-Platform
// benchmark served by the simulated model.
func NewExperiencePlatformSystem() (*System, error) { return NewExperiencePlatformSystemRows(1) }

// NewExperiencePlatformSystemRows builds the Experience-Platform benchmark
// with the database scaled to rows times its base row count (rows <= 1 is
// the standard corpus).
func NewExperiencePlatformSystemRows(rows int) (*System, error) {
	ds, err := aep.BuildRows(rows)
	if err != nil {
		return nil, err
	}
	return NewSystem(ds, llm.NewSim(ds)), nil
}

// NewSystem assembles a system from a corpus and any Client (use a real API
// client in production, llm.NewSim for the offline benchmarks).
func NewSystem(ds *Dataset, client Client) *System {
	return &System{DS: ds, Client: client, Store: rag.NewStore(ds.Demos), K: 8,
		Cache: engine.NewCache(0), Memo: assistant.NewAnswerMemo(0)}
}

// Assistant returns the retrieval-augmented assistant over this system,
// sharing the system-wide plan cache and answer memo.
func (s *System) Assistant() *Assistant {
	return &assistant.Assistant{Client: s.Client, DS: s.DS, Store: s.Store, K: s.K,
		Cache: s.Cache, Memo: s.Memo}
}

// FISQL returns the feedback-incorporation pipeline with the given options.
func (s *System) FISQL(opt Options) *FISQL {
	return &core.FISQL{Client: s.Client, DS: s.DS, Store: s.Store, K: s.K,
		Routing: opt.Routing, Highlights: opt.Highlights, DynamicDemos: opt.DynamicDemos}
}

// QueryRewrite returns the rewrite baseline.
func (s *System) QueryRewrite() *QueryRewrite {
	return &core.QueryRewrite{Client: s.Client, DS: s.DS, Store: s.Store, K: s.K}
}

// Session opens an interactive conversation against one database. The
// default method is full FISQL (routing on, highlights on). When the system
// has FoldFeedback set, the session folds its successful corrections back
// into the shared retrieval store.
func (s *System) Session(db string, opt Options) *Session {
	sess := core.NewSession(s.Assistant(), s.FISQL(opt), db)
	if s.FoldFeedback {
		sess.FoldStore = s.Store
	}
	return sess
}

// Databases lists the corpus's database names in a stable order.
func (s *System) Databases() []string {
	out := make([]string, 0, len(s.DS.Schemas))
	for name := range s.DS.Schemas {
		out = append(out, name)
	}
	// Map order is random; sort for a stable CLI experience.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
