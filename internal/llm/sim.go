package llm

import (
	"context"
	"fmt"
	"strings"

	"fisql/internal/dataset"
	"fisql/internal/feedback"
	"fisql/internal/nl2sql"
	"fisql/internal/prompt"
	"fisql/internal/schema"
)

// Sim is the deterministic simulated chat model. It understands the prompt
// layouts of internal/prompt and dispatches:
//
//   - NL2SQL prompts: resolve the question against its latent corpus
//     knowledge and emit the gold SQL — unless the question trips a planted
//     ambiguity trap that no in-prompt demonstration disambiguates, in
//     which case it emits the naive misreading. This reproduces the paper's
//     zero-shot vs RAG accuracy gap mechanically.
//   - Repair prompts (Figure 6): apply the feedback with the rule engine of
//     internal/nl2sql, using the routed operation type when the prompt
//     carries routed demonstrations (Figure 5) and a keyword guess
//     otherwise — the FISQL vs FISQL(-Routing) difference.
//   - Routing prompts: classify the feedback like the few-shot router.
//   - Rewrite prompts: fold the feedback into the question.
//
// A Sim is safe for concurrent use: every map is populated in NewSim and
// only read afterwards, and each Complete call works on per-call state.
type Sim struct {
	worlds []*dataset.Dataset

	byQuestion map[string]resolved
	// byContain holds every example's normalized trimmed question in corpus
	// order, precomputed so the containment fallback of resolve does not
	// re-normalize the whole corpus on every rewritten-question lookup.
	byContain []containEntry
	lexByDB   map[string]*schema.Lexicon
}

type resolved struct {
	ds *dataset.Dataset
	ex *dataset.Example
}

type containEntry struct {
	norm string
	r    resolved
}

// NewSim builds a simulator whose latent knowledge covers the given
// corpora.
func NewSim(worlds ...*dataset.Dataset) *Sim {
	s := &Sim{
		worlds:     worlds,
		byQuestion: make(map[string]resolved),
		lexByDB:    make(map[string]*schema.Lexicon),
	}
	for _, w := range worlds {
		for _, e := range w.Examples {
			r := resolved{ds: w, ex: e}
			s.byQuestion[schema.Normalize(e.Question)] = r
			if trimmed := strings.TrimRight(e.Question, "?. "); trimmed != "" {
				s.byContain = append(s.byContain, containEntry{norm: schema.Normalize(trimmed), r: r})
			}
		}
		for db, lx := range w.Lexicons {
			s.lexByDB[db] = lx
		}
	}
	return s
}

// Complete implements Client.
func (s *Sim) Complete(_ context.Context, req Request) (Response, error) {
	if strings.TrimSpace(req.Prompt) == "" {
		return Response{}, ErrEmptyPrompt
	}
	p, err := prompt.Parse(req.Prompt)
	if err != nil {
		return Response{}, fmt.Errorf("sim: cannot understand prompt: %w", err)
	}
	var text string
	switch p.Kind {
	case prompt.KindRouting:
		text = feedback.ClassifyRouted(p.Feedback).String()
	case prompt.KindRewrite:
		text = fmt.Sprintf("%s (%s)", strings.TrimRight(p.Question, "?. "), p.Feedback)
	case prompt.KindRepair:
		text = s.repair(p)
	default:
		text = s.generate(p)
	}
	return Response{
		Text:             text,
		PromptTokens:     CountTokens(req.Prompt),
		CompletionTokens: CountTokens(text),
	}, nil
}

// resolve finds the corpus example behind a question: exact match first,
// then containment (a rewritten question embeds the original).
func (s *Sim) resolve(question string) (resolved, bool, bool) {
	key := schema.Normalize(question)
	if r, ok := s.byQuestion[key]; ok {
		return r, false, true
	}
	for _, c := range s.byContain {
		if strings.Contains(key, c.norm) {
			return c.r, true, true
		}
	}
	return resolved{}, false, false
}

// generate answers an NL2SQL prompt.
func (s *Sim) generate(p *prompt.Parsed) string {
	r, rewritten, ok := s.resolve(p.Question)
	if !ok {
		// Outside the latent corpus: fall back to heuristic linking over
		// the prompt's schema.
		if lx := s.lexByDB[p.SchemaName]; lx != nil {
			if sql, ok := nl2sql.Generate(lx, p.Question); ok {
				return sql
			}
		}
		return "SELECT NULL -- question not understood"
	}
	e := r.ex
	demoNorms := make([]string, len(p.Demos))
	for i, d := range p.Demos {
		demoNorms[i] = schema.Normalize(d.Question)
	}
	var mask uint8
	for i, t := range e.Traps {
		if s.trapAvoided(t, demoNorms, rewritten) {
			continue
		}
		mask |= 1 << i
	}
	sql, ok := e.SQLFor(mask)
	if !ok {
		sql = e.WrongSQL()
	}
	return sql
}

// trapAvoided decides whether the model dodges one planted trap given the
// prompt's demonstration questions (pre-normalized by the caller).
func (s *Sim) trapAvoided(t dataset.Trap, demoNorms []string, rewritten bool) bool {
	// An in-context demonstration using the ambiguous phrase shows the
	// correct reading (the same containment rule as dataset.ContainsPhrase).
	if t.Phrase != "" {
		np := schema.Normalize(t.Phrase)
		for _, nd := range demoNorms {
			if strings.Contains(nd, np) {
				return true
			}
		}
	}
	// A rewritten question that folds clarifying feedback in rescues the
	// subset of misunderstandings the clarification actually reaches
	// (Query-Rewrite baseline; see DESIGN.md on this calibrated
	// assumption).
	if rewritten && t.RewriteFixable {
		return true
	}
	return false
}

// repair answers a feedback-incorporation prompt.
func (s *Sim) repair(p *prompt.Parsed) string {
	lx := s.lexiconFor(p)
	if lx == nil {
		return p.PrevSQL
	}
	op := feedback.ClassifyNaive(p.Feedback)
	if p.RoutedOp != nil {
		op = *p.RoutedOp
	}
	rep := &nl2sql.Repairer{Lex: lx}
	sql, _ := rep.Repair(p.PrevSQL, p.Feedback, op, p.Highlight)
	return sql
}

func (s *Sim) lexiconFor(p *prompt.Parsed) *schema.Lexicon {
	if r, _, ok := s.resolve(p.Question); ok {
		if lx := r.ds.Lexicons[r.ex.DB]; lx != nil {
			return lx
		}
	}
	return s.lexByDB[p.SchemaName]
}
