package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"fisql/internal/sqlast"
	"fisql/internal/sqlparse"
)

// This file implements the compile-once half of the engine: a planning pass
// that walks a parsed SELECT exactly once per (statement, database) and
// resolves every ColumnRef to a fixed (scope depth, binding, column) slot.
// Execution then reads values by index instead of re-scanning binding and
// column names (strings.ToLower/EqualFold) for every row.
//
// Planning is deliberately *semantics-free*: a reference the planner cannot
// resolve — or resolves to a problem (unknown column, ambiguity) — is left
// out of the slot map and recorded as a diagnostic. At runtime such
// references fall back to the dynamic rowEnv.lookup path, which errors (or
// doesn't — an unknown column in a WHERE clause over an empty table is never
// evaluated) at exactly the moment the seed interpreter would. This keeps
// planned execution result-identical to interpretation while still reporting
// unknown/ambiguous columns before execution via Plan.Diagnostics.
//
// The same walk classifies every subquery expression (scalar, EXISTS and
// IN) as correlated or not. A subquery is uncorrelated when every column
// reference inside it resolves statically to a scope inside the subquery;
// the executor then evaluates it once per Run instead of once per outer row.
// The rule is conservative: a reference that resolves to an enclosing scope,
// stays unresolved (its dynamic lookup may reach any scope), or sits under a
// compound ORDER BY the planner skips makes every subquery it sits in count
// as correlated.

// colSlot addresses one column value inside a rowEnv chain: walk `depth`
// levels up the outer chain, then index bindings[binding].vals[col].
type colSlot struct {
	depth   int
	binding int
	col     int
}

// Plan is a SELECT statement resolved against one database's schema. A Plan
// is immutable after PlanSelect returns and safe for concurrent use by any
// number of Executors; callers must not mutate Stmt. Executors themselves
// remain single-goroutine — create one per goroutine and share the Plan.
type Plan struct {
	// Stmt is the planned statement. Shared, read-only.
	Stmt *sqlast.SelectStmt

	// Aux caches derived read-only data a higher layer computes from this
	// plan exactly once (the assistant stores its rendered presentation —
	// reformulation, explanation, highlight spans — here). Tying the cache
	// to the plan gives it the plan cache's lifetime: LRU eviction drops
	// both together, so no side table can leak. Opaque to the engine.
	Aux atomic.Value

	db    *Database
	cols  map[*sqlast.ColumnRef]colSlot
	diags []string

	// uncorrelated holds the subquery statements (SubqueryExpr, ExistsExpr
	// and InExpr.Sub) whose result does not depend on the outer row.
	uncorrelated map[*sqlast.SelectStmt]bool

	// vec lazily caches the statement's columnar qualification (see vec.go):
	// built on first Run, shared by every executor running this plan. The
	// build is deterministic, so a racing double-build stores equal values.
	vec atomic.Pointer[vecPlan]
}

// Diagnostics returns the column-resolution problems found at plan time
// (unknown tables, unknown columns, ambiguous references), in source-walk
// order. A non-empty list does not mean execution will fail: the interpreter
// only errors when the offending expression is actually evaluated, and the
// planned path preserves that behavior exactly.
func (p *Plan) Diagnostics() []string {
	out := make([]string, len(p.diags))
	copy(out, p.diags)
	return out
}

// Prepare parses and plans a SELECT against db.
func Prepare(db *Database, sql string) (*Plan, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return PlanSelect(db, sel), nil
}

// PlanSelect plans a parsed SELECT against db. It never fails: resolution
// problems become Diagnostics and unresolved references simply keep the
// dynamic lookup path at runtime.
func PlanSelect(db *Database, sel *sqlast.SelectStmt) *Plan {
	pl := &planner{db: db, cols: make(map[*sqlast.ColumnRef]colSlot)}
	pl.selectStmt(sel, nil)
	return &Plan{Stmt: sel, db: db, cols: pl.cols, diags: pl.diags, uncorrelated: pl.uncorrelated}
}

// ----------------------------------------------------------------------------
// Planner

// planBinding mirrors one runtime binding: the alias it answers to and its
// column names. A binding is opaque when its header cannot be derived
// statically (see selectHeader); references through it stay dynamic.
type planBinding struct {
	alias  string
	cols   []string
	opaque bool
}

// planScope mirrors the binding structure of a rowEnv at plan time. level
// is the scope's position in its chain (1 for a top-level scope), so a
// scope with a level at or below a subquery's boundary lies outside it.
type planScope struct {
	bindings []planBinding
	outer    *planScope
	level    int
}

func newScope(outer *planScope) *planScope {
	return &planScope{outer: outer, level: outer.levelOf() + 1}
}

func (s *planScope) levelOf() int {
	if s == nil {
		return 0
	}
	return s.level
}

// openSub is a subquery expression being planned: boundary is the level of
// the scope enclosing it.
type openSub struct {
	boundary   int
	correlated bool
}

type planner struct {
	db           *Database
	cols         map[*sqlast.ColumnRef]colSlot
	diags        []string
	open         []openSub
	uncorrelated map[*sqlast.SelectStmt]bool
}

func (p *planner) diag(msg string) { p.diags = append(p.diags, msg) }

// reach records a reference that reads the scope at the given level: every
// open subquery that scope lies outside of is correlated. Level 0 stands
// for an unresolved reference, which may read any scope.
func (p *planner) reach(level int) {
	for i := range p.open {
		if level <= p.open[i].boundary {
			p.open[i].correlated = true
		}
	}
}

// subquery plans a subquery expression and records it as uncorrelated when
// no reference inside it reached past outer.
func (p *planner) subquery(sel *sqlast.SelectStmt, outer *planScope) {
	p.open = append(p.open, openSub{boundary: outer.levelOf()})
	p.selectStmt(sel, outer)
	top := p.open[len(p.open)-1]
	p.open = p.open[:len(p.open)-1]
	if !top.correlated {
		if p.uncorrelated == nil {
			p.uncorrelated = make(map[*sqlast.SelectStmt]bool)
		}
		p.uncorrelated[sel] = true
	}
}

// selectStmt plans a full SELECT including compound arms, ORDER BY and
// LIMIT/OFFSET. outer is the enclosing query's scope (nil at top level).
func (p *planner) selectStmt(sel *sqlast.SelectStmt, outer *planScope) {
	scope := p.selectCore(sel, outer)
	for c := sel.Compound; c != nil; c = c.Right.Compound {
		p.selectCore(c.Right, outer)
	}
	// ORDER BY keys resolve leniently (no diagnostics): output-column and
	// alias references are matched by orderRows before eval is ever called,
	// so an unresolved name here is usually not an error. For compound
	// selects the keys are skipped entirely: orderRows resolves them
	// against output columns and ordinals only, never evaluating them, and
	// the enclosing subqueries are conservatively marked correlated.
	if sel.Compound == nil {
		for _, ob := range sel.OrderBy {
			p.expr(ob.Expr, scope, false)
		}
	} else if len(sel.OrderBy) > 0 {
		p.reach(0)
	}
	// LIMIT/OFFSET evaluate in an empty scope chained to outer
	// (execSelect uses &rowEnv{outer: outer}).
	limitScope := newScope(outer)
	p.expr(sel.Limit, limitScope, false)
	p.expr(sel.Offset, limitScope, false)
}

// selectCore plans one SELECT arm (FROM/WHERE/GROUP BY/HAVING/items) and
// returns its row scope.
func (p *planner) selectCore(sel *sqlast.SelectStmt, outer *planScope) *planScope {
	scope := newScope(outer)
	if sel.From != nil {
		scope.bindings = append(scope.bindings, p.sourceBinding(sel.From.First, outer))
		for i := range sel.From.Joins {
			j := &sel.From.Joins[i]
			scope.bindings = append(scope.bindings, p.sourceBinding(j.Source, outer))
			// The ON clause sees exactly the sources joined so far — the
			// scope currently holds that prefix, and slot indices into it
			// stay valid as later bindings are appended.
			p.expr(j.On, scope, true)
		}
	}
	for _, it := range sel.Items {
		p.expr(it.Expr, scope, true)
	}
	p.expr(sel.Where, scope, true)
	for _, g := range sel.GroupBy {
		p.expr(g, scope, true)
	}
	p.expr(sel.Having, scope, true)
	return scope
}

// sourceBinding plans one table source and returns its binding.
func (p *planner) sourceBinding(ts sqlast.TableSource, outer *planScope) planBinding {
	if ts.Sub != nil {
		p.selectStmt(ts.Sub, outer)
		alias := strings.ToLower(ts.Alias)
		if alias == "" {
			alias = "subquery"
		}
		cols, stable := p.selectHeader(ts.Sub)
		return planBinding{alias: alias, cols: cols, opaque: !stable}
	}
	alias := strings.ToLower(ts.Alias)
	if alias == "" {
		alias = strings.ToLower(ts.Name)
	}
	t, ok := p.db.Table(ts.Name)
	if !ok {
		p.diag(fmt.Sprintf("unknown table %q", ts.Name))
		return planBinding{alias: alias, opaque: true}
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	return planBinding{alias: alias, cols: cols}
}

// selectHeader derives the output header of a derived table statically. The
// header must be identical whether or not the subquery produces rows
// (outputColumns expands * from a sample row env when it has one and falls
// back to the catalog when it doesn't), so star items are only considered
// stable when both paths provably agree; anything else makes the binding
// opaque and keeps lookups through it dynamic.
func (p *planner) selectHeader(sel *sqlast.SelectStmt) ([]string, bool) {
	var srcs []sqlast.TableSource
	if sel.From != nil {
		srcs = append(srcs, sel.From.First)
		for _, j := range sel.From.Joins {
			srcs = append(srcs, j.Source)
		}
	}
	catalogOnly := true // every source is a named catalog table
	for _, ts := range srcs {
		if ts.Sub != nil || ts.Name == "" {
			catalogOnly = false
			break
		}
		if _, ok := p.db.Table(ts.Name); !ok {
			catalogOnly = false
			break
		}
	}
	var cols []string
	for _, it := range sel.Items {
		switch {
		case it.Star:
			if sel.From == nil {
				continue // SELECT * with no FROM projects no columns
			}
			if !catalogOnly {
				return nil, false
			}
			for _, ts := range srcs {
				t, _ := p.db.Table(ts.Name)
				for _, c := range t.Columns {
					cols = append(cols, c.Name)
				}
			}
		case it.TableStar != "":
			// Stable only when the empty-input fallback (catalog lookup by
			// the star's name) matches the sample-env expansion: exactly one
			// source answers to the alias, and it is the named table itself.
			want := strings.ToLower(it.TableStar)
			matches := 0
			var mt *Table
			for _, ts := range srcs {
				if ts.Sub != nil {
					return nil, false
				}
				alias := strings.ToLower(ts.Alias)
				if alias == "" {
					alias = strings.ToLower(ts.Name)
				}
				if alias != want {
					continue
				}
				matches++
				if !strings.EqualFold(ts.Name, it.TableStar) {
					return nil, false
				}
				mt, _ = p.db.Table(ts.Name)
			}
			if matches != 1 || mt == nil {
				return nil, false
			}
			for _, c := range mt.Columns {
				cols = append(cols, c.Name)
			}
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
				cols = append(cols, cr.Column)
			} else {
				cols = append(cols, sqlast.PrintExpr(it.Expr))
			}
		}
	}
	return cols, true
}

// expr walks an expression, resolving ColumnRefs in scope and descending
// into subqueries with the scope as their outer chain. strict controls
// whether resolution failures are reported as diagnostics.
func (p *planner) expr(e sqlast.Expr, scope *planScope, strict bool) {
	switch x := e.(type) {
	case nil:
	case *sqlast.ColumnRef:
		p.resolve(x, scope, strict)
	case *sqlast.Literal:
	case *sqlast.Binary:
		p.expr(x.L, scope, strict)
		p.expr(x.R, scope, strict)
	case *sqlast.Unary:
		p.expr(x.X, scope, strict)
	case *sqlast.FuncCall:
		for _, a := range x.Args {
			p.expr(a, scope, strict)
		}
	case *sqlast.InExpr:
		p.expr(x.X, scope, strict)
		for _, v := range x.List {
			p.expr(v, scope, strict)
		}
		if x.Sub != nil {
			p.subquery(x.Sub, scope)
		}
	case *sqlast.BetweenExpr:
		p.expr(x.X, scope, strict)
		p.expr(x.Lo, scope, strict)
		p.expr(x.Hi, scope, strict)
	case *sqlast.LikeExpr:
		p.expr(x.X, scope, strict)
		p.expr(x.Pattern, scope, strict)
	case *sqlast.IsNullExpr:
		p.expr(x.X, scope, strict)
	case *sqlast.ExistsExpr:
		p.subquery(x.Sub, scope)
	case *sqlast.SubqueryExpr:
		p.subquery(x.Sub, scope)
	case *sqlast.CaseExpr:
		for _, w := range x.Whens {
			p.expr(w.When, scope, strict)
			p.expr(w.Then, scope, strict)
		}
		p.expr(x.Else, scope, strict)
	}
}

// resolve records x's slot, and the scope it reads, for every open
// subquery; an unresolved reference counts as reaching every scope.
func (p *planner) resolve(x *sqlast.ColumnRef, scope *planScope, strict bool) {
	slot, ok := p.slot(x, scope, strict)
	if !ok {
		p.reach(0)
		return
	}
	p.cols[x] = slot
	p.reach(scope.level - slot.depth)
}

// slot mirrors rowEnv.lookup structurally: same scope walk, same
// first-alias-match rule for qualified references, same cross-binding
// ambiguity rule for bare ones. Anything it cannot decide statically (an
// opaque binding in the way) is left to the dynamic path with no diagnostic.
func (p *planner) slot(x *sqlast.ColumnRef, scope *planScope, strict bool) (colSlot, bool) {
	depth := 0
	for s := scope; s != nil; s, depth = s.outer, depth+1 {
		if x.Table != "" {
			want := strings.ToLower(x.Table)
			for bi := range s.bindings {
				b := &s.bindings[bi]
				if b.alias != want {
					continue
				}
				// lookup stops at the first binding answering to the alias.
				if b.opaque {
					return colSlot{}, false
				}
				for ci, c := range b.cols {
					if strings.EqualFold(c, x.Column) {
						return colSlot{depth: depth, binding: bi, col: ci}, true
					}
				}
				if strict {
					p.diag(fmt.Sprintf("column %s.%s not found", x.Table, x.Column))
				}
				return colSlot{}, false
			}
			continue // alias might belong to an outer scope
		}
		count := 0
		hasOpaque := false
		var slot colSlot
		for bi := range s.bindings {
			b := &s.bindings[bi]
			if b.opaque {
				hasOpaque = true
				continue
			}
			for ci, c := range b.cols {
				if strings.EqualFold(c, x.Column) {
					count++
					if count == 1 {
						slot = colSlot{depth: depth, binding: bi, col: ci}
					}
				}
			}
		}
		if count > 1 {
			if strict {
				p.diag(fmt.Sprintf("ambiguous column %q", x.Column))
			}
			return colSlot{}, false
		}
		if hasOpaque {
			// The opaque binding may hold the column too (ambiguity) or hold
			// it when nothing else does; either way only runtime can tell.
			return colSlot{}, false
		}
		if count == 1 {
			return slot, true
		}
		// Not present in this scope; fall through to the outer one.
	}
	if strict {
		if x.Table != "" {
			p.diag(fmt.Sprintf("unknown table or alias %q", x.Table))
		} else {
			p.diag(fmt.Sprintf("unknown column %q", x.Column))
		}
	}
	return colSlot{}, false
}
