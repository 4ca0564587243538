package engine

import (
	"errors"
	"math"
	"strings"

	"fisql/internal/sqlast"
)

// errBail is the columnar path's internal "cannot mirror this" sentinel: it
// aborts the attempt like any evaluation error would, routing the statement
// to the row executor. It never escapes runVec.
var errBail = errors.New("columnar bail")

// This file implements the vectorized columnar execution path. Executor.Run
// tries it before the row-at-a-time executor; SetColumnar(false) disables
// it. The design goal is byte-identical results with zero new error
// surfaces, achieved by construction rather than by re-implementation:
//
//   - Output rows are gathered from Table.Rows (the row-major source of
//     truth) by the row path's own projectRow/outputColumns/orderRows code,
//     evaluated over the same shared scan environments the row path uses.
//     The typed column arrays (columnar.go) feed only the WHERE masks,
//     GROUP BY partitioning and aggregate folds — stages whose results are
//     scalar selections or Values, never user-visible row structures.
//
//   - Aggregates are folded vectorized once per group and injected into
//     evalCtx.aggVals, so HAVING/items/ORDER BY still run through ex.eval.
//
//   - The path NEVER produces an error. Anything it cannot mirror exactly —
//     an evaluation error, an unsupported join domain, a scan past maxRows
//     — abandons the attempt and reruns on the row executor, which owns
//     every error message and error point. The columnar path can therefore
//     never succeed where the row path errors, nor error where it succeeds.
//
// Plan-time qualification (buildVecPlan) is purely structural: single
// catalog table, or exactly one INNER/LEFT hash equi-join of two catalog
// tables on a planned cross-side column equality. Everything else — derived
// tables, multi-joins, compound selects — routes to the row executor.

// vecPlan is a statement's columnar qualification, cached on the Plan.
type vecPlan struct {
	ok bool

	t1     *Table
	alias1 string
	cols1  []string

	// Join fields; t2 == nil means single-table.
	t2       *Table
	alias2   string
	cols2    []string
	joinType sqlast.JoinType
	leftCol  int // key column in t1
	rightCol int // key column in t2

	// aggregated mirrors project()'s detection; aggNodes are the aggregate
	// calls reachable from items/HAVING/ORDER BY, folded once per group.
	aggregated bool
	aggNodes   []*sqlast.FuncCall
}

// buildVecPlan qualifies p's statement for columnar execution.
func buildVecPlan(p *Plan) *vecPlan {
	no := &vecPlan{}
	sel := p.Stmt
	if sel.Compound != nil || sel.From == nil || sel.From.First.Sub != nil {
		return no
	}
	t1, ok := p.db.Table(sel.From.First.Name)
	if !ok {
		return no
	}
	vp := &vecPlan{ok: true, t1: t1}
	vp.alias1 = strings.ToLower(sel.From.First.Alias)
	if vp.alias1 == "" {
		vp.alias1 = strings.ToLower(sel.From.First.Name)
	}
	vp.cols1 = columnNames(t1)

	if len(sel.From.Joins) > 1 {
		return no
	}
	if len(sel.From.Joins) == 1 {
		j := &sel.From.Joins[0]
		if j.Source.Sub != nil || j.On == nil {
			return no
		}
		if j.Type != sqlast.JoinInner && j.Type != sqlast.JoinLeft {
			return no
		}
		t2, ok := p.db.Table(j.Source.Name)
		if !ok {
			return no
		}
		conjs := splitAnd(j.On)
		if len(conjs) != 1 {
			return no
		}
		eq, ok := conjs[0].(*sqlast.Binary)
		if !ok || eq.Op != sqlast.OpEq {
			return no
		}
		lref, lok := eq.L.(*sqlast.ColumnRef)
		rref, rok := eq.R.(*sqlast.ColumnRef)
		if !lok || !rok {
			return no
		}
		ls, lok := p.cols[lref]
		rs, rok := p.cols[rref]
		if !lok || !rok || ls.depth != 0 || rs.depth != 0 {
			return no
		}
		switch {
		case ls.binding == 0 && rs.binding == 1:
			vp.leftCol, vp.rightCol = ls.col, rs.col
		case ls.binding == 1 && rs.binding == 0:
			vp.leftCol, vp.rightCol = rs.col, ls.col
		default:
			return no // both operands resolve to the same side
		}
		vp.t2 = t2
		vp.joinType = j.Type
		vp.alias2 = strings.ToLower(j.Source.Alias)
		if vp.alias2 == "" {
			vp.alias2 = strings.ToLower(j.Source.Name)
		}
		vp.cols2 = columnNames(t2)
	}

	// Mirror project()'s aggregation detection (its ORDER BY clause can
	// never flip the flag: it requires a non-empty GROUP BY, which already
	// set it).
	vp.aggregated = len(sel.GroupBy) > 0 || sel.Having != nil
	if !vp.aggregated {
		for _, it := range sel.Items {
			if it.Expr != nil && hasAggregate(it.Expr) {
				vp.aggregated = true
				break
			}
		}
	}
	if vp.aggregated {
		for _, it := range sel.Items {
			if it.Expr != nil {
				collectAggregates(it.Expr, &vp.aggNodes)
			}
		}
		collectAggregates(sel.Having, &vp.aggNodes)
		for _, ob := range sel.OrderBy {
			collectAggregates(ob.Expr, &vp.aggNodes)
		}
	}
	return vp
}

func columnNames(t *Table) []string {
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	return cols
}

// collectAggregates gathers the aggregate calls in e that evaluate in THIS
// statement's group context, with the same subquery-skipping walk as
// hasAggregate. Aggregate arguments are not descended into: nested
// aggregates error in the row path and the fold reproduces that.
func collectAggregates(e sqlast.Expr, out *[]*sqlast.FuncCall) {
	if e == nil {
		return
	}
	sqlast.Walk(e, func(n sqlast.Expr) bool {
		switch x := n.(type) {
		case *sqlast.FuncCall:
			if isAggregateName(x.Name) {
				*out = append(*out, x)
				return false
			}
		case *sqlast.SubqueryExpr, *sqlast.ExistsExpr:
			return false
		case *sqlast.InExpr:
			if x.Sub != nil {
				collectAggregates(x.X, out)
				return false
			}
		}
		return true
	})
}

// ----------------------------------------------------------------------------
// Execution

// vecPair is one joined row: an index into t1.Rows and one into t2.Rows,
// r == -1 for a LEFT JOIN null row.
type vecPair struct{ l, r int32 }

// vecExec is the per-run state of one columnar execution attempt.
type vecExec struct {
	ex   *Executor
	vp   *vecPlan
	stmt *sqlast.SelectStmt
	ct1  *colTable
	ct2  *colTable
	n    int // context rows: len(t1.Rows) or len(pairs)

	// Single-table: the database's shared scan environments (the very same
	// envs the row path evaluates over).
	envs []*rowEnv

	// Join: materialized pair indices plus a reusable scratch environment.
	pairs        []vecPair
	rightNulls   []Value
	scratch      rowEnv
	scratchBinds [2]binding
}

// runVec attempts columnar execution of p. ok=false means the caller must
// run the row executor; it is returned for both unqualified statements and
// mid-flight bails, and never carries a partial result.
func (ex *Executor) runVec(p *Plan) (*Result, bool) {
	vp := p.vec.Load()
	if vp == nil {
		vp = buildVecPlan(p)
		p.vec.Store(vp)
	}
	if !vp.ok {
		return nil, false
	}
	// Tiny-table aggregation: below the floor the row path wins — see
	// DefaultColumnarMinRows. Scan shapes stay vectorized at any size.
	if vp.aggregated && ex.colMinRows > 0 && len(vp.t1.Rows) < ex.colMinRows &&
		(vp.t2 == nil || len(vp.t2.Rows) < ex.colMinRows) {
		return nil, false
	}
	// The row executor owns the oversized-scan and oversized-join errors:
	// bail rather than replicate their text and order.
	if len(vp.t1.Rows) > ex.maxRows {
		return nil, false
	}
	v := &vecExec{ex: ex, vp: vp, stmt: p.Stmt}
	if vp.t2 == nil {
		v.n = len(vp.t1.Rows)
		v.ct1 = ex.db.colTable(vp.t1)
		v.envs = ex.db.scanEnvs(vp.t1, vp.alias1)
	} else {
		if len(vp.t2.Rows) > ex.maxRows {
			return nil, false
		}
		v.ct1 = ex.db.colTable(vp.t1)
		v.ct2 = ex.db.colTable(vp.t2)
		if !v.buildPairs() {
			return nil, false
		}
		v.n = len(v.pairs)
		v.rightNulls = make([]Value, len(vp.cols2))
		for i := range v.rightNulls {
			v.rightNulls[i] = Null()
		}
		v.scratchBinds[0] = binding{alias: vp.alias1, cols: vp.cols1}
		v.scratchBinds[1] = binding{alias: vp.alias2, cols: vp.cols2}
		v.scratch.bindings = v.scratchBinds[:]
	}
	return v.run()
}

// env returns the evaluation environment for context row i. Single-table
// environments are the shared scan envs (stable); join environments reuse
// one scratch env and are only valid until the next call.
func (v *vecExec) env(i int) *rowEnv {
	if v.vp.t2 == nil {
		return v.envs[i]
	}
	p := v.pairs[i]
	v.scratchBinds[0].vals = v.vp.t1.Rows[p.l]
	if p.r >= 0 {
		v.scratchBinds[1].vals = v.vp.t2.Rows[p.r]
	} else {
		v.scratchBinds[1].vals = v.rightNulls
	}
	return &v.scratch
}

// stableEnv is env for callers that retain the environment (ORDER BY,
// group representatives): join rows get a freshly allocated environment.
func (v *vecExec) stableEnv(i int32) *rowEnv {
	if v.vp.t2 == nil {
		return v.envs[i]
	}
	p := v.pairs[i]
	right := v.rightNulls
	if p.r >= 0 {
		right = v.vp.t2.Rows[p.r]
	}
	return &rowEnv{bindings: []binding{
		{alias: v.vp.alias1, cols: v.vp.cols1, vals: v.vp.t1.Rows[p.l]},
		{alias: v.vp.alias2, cols: v.vp.cols2, vals: right},
	}}
}

// buildPairs materializes the hash equi-join as (left, right) index pairs in
// the row path's emission order: left-major, right-source order per left
// row, LEFT JOIN null rows for matchless left rows. NULL keys never match.
// false means bail (unsupported key domain, or result larger than maxRows —
// the row executor owns the error/fallback semantics there).
func (v *vecExec) buildPairs() bool {
	vp := v.vp
	k1 := &v.ct1.cols[vp.leftCol]
	k2 := &v.ct2.cols[vp.rightCol]
	nLeft := len(vp.t1.Rows)
	leftJoin := vp.joinType == sqlast.JoinLeft

	// An all-NULL key column on either side means no pair can match,
	// whatever the other side's domain is.
	if k1.kind == kindEmpty || k2.kind == kindEmpty {
		if !leftJoin {
			return true
		}
		if nLeft > v.ex.maxRows {
			return false
		}
		v.pairs = make([]vecPair, nLeft)
		for i := range v.pairs {
			v.pairs[i] = vecPair{int32(i), -1}
		}
		return true
	}

	// The hash key is only faithful to Compare-equality on a homogeneous
	// domain (see the hash equi-join commentary in exec.go); bool and mixed
	// domains bail to the row executor's nested loop.
	numericKinds := func(k colKind) bool { return k == kindInt || k == kindFloat || k == kindNum }
	var numeric bool
	switch {
	case numericKinds(k1.kind) && numericKinds(k2.kind):
		numeric = true
	case k1.kind == kindString && k2.kind == kindString:
		numeric = false
	default:
		return false
	}

	count := 0
	pairs := make([]vecPair, 0, nLeft)
	emit := func(li int, matches []int32) bool {
		if len(matches) == 0 {
			if leftJoin {
				pairs = append(pairs, vecPair{int32(li), -1})
				count++
			}
			return count <= v.ex.maxRows
		}
		for _, ri := range matches {
			pairs = append(pairs, vecPair{int32(li), ri})
			count++
			if count > v.ex.maxRows {
				return false
			}
		}
		return true
	}

	if numeric {
		ht := make(map[uint64][]int32, len(vp.t2.Rows))
		for ri := range vp.t2.Rows {
			if k2.null(ri) {
				continue
			}
			f := k2.nums[ri]
			if f == 0 {
				f = 0 // fold -0.0 into 0 like makeJoinKey
			}
			b := math.Float64bits(f)
			ht[b] = append(ht[b], int32(ri))
		}
		for li := 0; li < nLeft; li++ {
			var matches []int32
			if !k1.null(li) {
				f := k1.nums[li]
				if f == 0 {
					f = 0
				}
				matches = ht[math.Float64bits(f)]
			}
			if !emit(li, matches) {
				return false
			}
		}
	} else {
		ht := make(map[string][]int32, len(vp.t2.Rows))
		for ri := range vp.t2.Rows {
			if k2.null(ri) {
				continue
			}
			s := k2.strs[ri]
			ht[s] = append(ht[s], int32(ri))
		}
		for li := 0; li < nLeft; li++ {
			var matches []int32
			if !k1.null(li) {
				matches = ht[k1.strs[li]]
			}
			if !emit(li, matches) {
				return false
			}
		}
	}
	v.pairs = pairs
	return true
}

// run executes the qualified statement. ok=false at any point means bail to
// the row executor.
func (v *vecExec) run() (*Result, bool) {
	stmt := v.stmt
	selIdx, ok := v.filter()
	if !ok {
		return nil, false
	}

	// Header: the row path derives it from the post-WHERE environments
	// (first survivor as sample, catalog fallback otherwise).
	var sampleEnvs []*rowEnv
	if len(selIdx) > 0 {
		sampleEnvs = []*rowEnv{v.env(int(selIdx[0]))}
	}
	cols := v.ex.outputColumns(stmt, sampleEnvs)

	// Each output row's source, kept only for ORDER BY: a group's
	// representative and aggregate context, or the context row.
	ordered := len(stmt.OrderBy) > 0
	var outRows [][]Value
	var outEnvs []*rowEnv
	var outCtxs []*evalCtx
	var outSrc []int32

	if v.vp.aggregated {
		groups, reps, ok := v.groupSel(selIdx)
		if !ok {
			return nil, false
		}
		// Every group's aggregate values live in one flat array, nAgg per
		// group, in vp.aggNodes order.
		nAgg := len(v.vp.aggNodes)
		aggVals := make([]Value, len(groups)*nAgg)
		ctxs := make([]evalCtx, len(groups))
		outRows = make([][]Value, 0, len(groups))
		if ordered {
			outEnvs = make([]*rowEnv, 0, len(groups))
			outCtxs = make([]*evalCtx, 0, len(groups))
		}
		for gi := range groups {
			vals := aggVals[gi*nAgg : (gi+1)*nAgg]
			for k, node := range v.vp.aggNodes {
				val, err := v.aggValue(node, groups[gi])
				if err != nil {
					return nil, false
				}
				vals[k] = val
			}
			ctx := &ctxs[gi]
			ctx.aggNodes, ctx.aggVals = v.vp.aggNodes, vals
			var rep *rowEnv
			if reps[gi] < 0 {
				rep = &rowEnv{} // global aggregation over zero rows
			} else {
				rep = v.stableEnv(reps[gi])
			}
			if stmt.Having != nil {
				keep, err := v.ex.evalBool(stmt.Having, rep, ctx)
				if err != nil {
					return nil, false
				}
				if !keep {
					continue
				}
			}
			row, err := v.ex.projectRow(stmt, rep, ctx)
			if err != nil {
				return nil, false
			}
			outRows = append(outRows, row)
			if ordered {
				outEnvs = append(outEnvs, rep)
				outCtxs = append(outCtxs, ctx)
			}
		}
	} else {
		outRows = make([][]Value, 0, len(selIdx))
		for _, i := range selIdx {
			row, err := v.ex.projectRow(stmt, v.env(int(i)), nil)
			if err != nil {
				return nil, false
			}
			outRows = append(outRows, row)
		}
		outSrc = selIdx
	}
	if len(outRows) == 0 {
		outRows = nil // the row path's empty result
	}

	if stmt.Distinct {
		seen := make(map[string]bool, len(outRows))
		var kb []byte
		keptRows := outRows[:0]
		keptEnvs := outEnvs[:0]
		keptCtxs := outCtxs[:0]
		keptSrc := outSrc[:0]
		for i, r := range outRows {
			kb = rowKeyAppend(kb[:0], r)
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
			keptRows = append(keptRows, r)
			if outEnvs != nil {
				keptEnvs = append(keptEnvs, outEnvs[i])
				keptCtxs = append(keptCtxs, outCtxs[i])
			}
			if outSrc != nil {
				keptSrc = append(keptSrc, outSrc[i])
			}
		}
		outRows, outEnvs, outCtxs, outSrc = keptRows, keptEnvs, keptCtxs, keptSrc
	}

	res := &Result{Columns: cols, Rows: outRows}

	if ordered {
		src := orderSrc{env: func(i int) (*rowEnv, *evalCtx) { return outEnvs[i], outCtxs[i] }}
		if !v.vp.aggregated {
			src = orderSrc{
				env: func(i int) (*rowEnv, *evalCtx) { return v.stableEnv(outSrc[i]), nil },
				col: v.orderCol,
				src: outSrc,
			}
		}
		if err := v.ex.orderRows(stmt, res, src); err != nil {
			return nil, false
		}
		res.Ordered = true
	}

	// LIMIT/OFFSET, the row path's own code (top level: no outer).
	if err := v.ex.limitRows(stmt, res, nil); err != nil {
		return nil, false
	}
	return res, true
}

// filter applies WHERE and returns the surviving context rows in order.
func (v *vecExec) filter() ([]int32, bool) {
	if v.stmt.Where == nil {
		sel := make([]int32, v.n)
		for i := range sel {
			sel[i] = int32(i)
		}
		return sel, true
	}
	if v.vp.t2 == nil {
		m, err := v.mask(v.stmt.Where)
		if err != nil {
			return nil, false
		}
		kept := 0
		for _, mv := range m {
			if mv == mTrue {
				kept++
			}
		}
		sel := make([]int32, 0, kept)
		for i, mv := range m {
			if mv == mTrue {
				sel = append(sel, int32(i))
			}
		}
		return sel, true
	}
	// Join rows: generic row-order evaluation over the scratch env (the
	// same evalBool the row path's WHERE filter runs).
	var sel []int32
	for i := 0; i < v.n; i++ {
		keep, err := v.ex.evalBool(v.stmt.Where, v.env(i), nil)
		if err != nil {
			return nil, false
		}
		if keep {
			sel = append(sel, int32(i))
		}
	}
	return sel, true
}

// ----------------------------------------------------------------------------
// Filter masks
//
// A mask holds one three-valued truth per context row — the truth3 of the
// value the row path's eval would produce. Typed kernels cover the
// comparison/LIKE/BETWEEN/IN/IS NULL shapes whose evaluation provably
// cannot error; everything else evaluates generically per row through
// ex.eval, so errors (which force a bail) and exotic semantics stay the row
// path's own.

const (
	mFalse int8 = 0
	mTrue  int8 = 1
	mNull  int8 = 2
)

func truth3(val Value) int8 {
	if val.IsNull() {
		return mNull
	}
	if val.Truthy() {
		return mTrue
	}
	return mFalse
}

// slotCol resolves e as a planned reference to a column of the scanned
// table (single-table context only).
func (v *vecExec) slotCol(e sqlast.Expr) (int, bool) {
	cr, ok := e.(*sqlast.ColumnRef)
	if !ok || v.ex.plan == nil {
		return 0, false
	}
	slot, ok := v.ex.plan.cols[cr]
	if !ok || slot.depth != 0 || slot.binding != 0 {
		return 0, false
	}
	return slot.col, true
}

// orderCol returns the typed column a bare ORDER BY column key reads on a
// non-aggregated single-table statement, or nil. Output row i then holds
// the key at context row outSrc[i]. kindOther columns stay evaluated: only
// the other kinds exclude NaN and mixed domains, where Compare is a total
// order that colData.compareRows mirrors.
func (v *vecExec) orderCol(e sqlast.Expr) *colData {
	if v.vp.t2 != nil {
		return nil
	}
	ci, ok := v.slotCol(e)
	if !ok || v.ct1.cols[ci].kind == kindOther {
		return nil
	}
	return &v.ct1.cols[ci]
}

// constVal evaluates a literal operand once. Literal evaluation is
// environment-free; an unparseable number literal surfaces as an error and
// bails the whole attempt (the row executor owns whether that error is ever
// reached).
func (v *vecExec) constVal(e sqlast.Expr) (Value, bool, error) {
	lit, ok := e.(*sqlast.Literal)
	if !ok {
		return Value{}, false, nil
	}
	val, err := v.ex.eval(lit, &rowEnv{}, nil)
	if err != nil {
		return Value{}, false, err
	}
	return val, true, nil
}

func fillMask(n int, m int8) []int8 {
	out := make([]int8, n)
	if m != 0 {
		for i := range out {
			out[i] = m
		}
	}
	return out
}

// cmpFloat mirrors Compare's numeric ordering.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpText mirrors Compare's text ordering: case-insensitive fold with an
// exact tiebreak (so equality is exact string equality).
func cmpText(a, b string) int {
	if c := compareFold(a, b); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

func cmpResult(op sqlast.BinaryOp, c int) int8 {
	var r bool
	switch op {
	case sqlast.OpEq:
		r = c == 0
	case sqlast.OpNeq:
		r = c != 0
	case sqlast.OpLt:
		r = c < 0
	case sqlast.OpLte:
		r = c <= 0
	case sqlast.OpGt:
		r = c > 0
	default: // OpGte
		r = c >= 0
	}
	if r {
		return mTrue
	}
	return mFalse
}

// flipCmp mirrors an ordering operator across swapped operands.
func flipCmp(op sqlast.BinaryOp) sqlast.BinaryOp {
	switch op {
	case sqlast.OpLt:
		return sqlast.OpGt
	case sqlast.OpLte:
		return sqlast.OpGte
	case sqlast.OpGt:
		return sqlast.OpLt
	case sqlast.OpGte:
		return sqlast.OpLte
	}
	return op // Eq/Neq are symmetric
}

func isNumericKind(k colKind) bool { return k == kindInt || k == kindFloat || k == kindNum }

// mask computes the truth mask of e over the scanned table.
func (v *vecExec) mask(e sqlast.Expr) ([]int8, error) {
	switch x := e.(type) {
	case *sqlast.Binary:
		switch x.Op {
		case sqlast.OpAnd, sqlast.OpOr:
			a, err := v.mask(x.L)
			if err != nil {
				return nil, err
			}
			b, err := v.mask(x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == sqlast.OpAnd {
				for i := range a {
					a[i] = and3(a[i], b[i])
				}
			} else {
				for i := range a {
					a[i] = or3(a[i], b[i])
				}
			}
			return a, nil
		case sqlast.OpEq, sqlast.OpNeq, sqlast.OpLt, sqlast.OpLte, sqlast.OpGt, sqlast.OpGte:
			return v.cmpMask(x)
		}
	case *sqlast.Unary:
		if x.Op == sqlast.OpNot {
			m, err := v.mask(x.X)
			if err != nil {
				return nil, err
			}
			for i := range m {
				switch m[i] {
				case mTrue:
					m[i] = mFalse
				case mFalse:
					m[i] = mTrue
				}
			}
			return m, nil
		}
	case *sqlast.IsNullExpr:
		if ci, ok := v.slotCol(x.X); ok {
			c := &v.ct1.cols[ci]
			m := make([]int8, v.n)
			for i := range m {
				if c.null(i) != x.Not {
					m[i] = mTrue
				}
			}
			return m, nil
		}
	case *sqlast.BetweenExpr:
		if m, ok, err := v.betweenMask(x); err != nil {
			return nil, err
		} else if ok {
			return m, nil
		}
	case *sqlast.LikeExpr:
		if m, ok, err := v.likeMask(x); err != nil {
			return nil, err
		} else if ok {
			return m, nil
		}
	case *sqlast.InExpr:
		if m, ok, err := v.inMask(x); err != nil {
			return nil, err
		} else if ok {
			return m, nil
		}
	case *sqlast.Literal:
		val, _, err := v.constVal(x)
		if err != nil {
			return nil, err
		}
		return fillMask(v.n, truth3(val)), nil
	case *sqlast.ColumnRef:
		if ci, ok := v.slotCol(x); ok {
			c := &v.ct1.cols[ci]
			switch {
			case isNumericKind(c.kind):
				m := make([]int8, v.n)
				for i := range m {
					switch {
					case c.null(i):
						m[i] = mNull
					case c.nums[i] != 0:
						m[i] = mTrue
					}
				}
				return m, nil
			case c.kind == kindString:
				m := make([]int8, v.n)
				for i := range m {
					switch {
					case c.null(i):
						m[i] = mNull
					case c.strs[i] != "":
						m[i] = mTrue
					}
				}
				return m, nil
			case c.kind == kindEmpty:
				return fillMask(v.n, mNull), nil
			}
		}
	}
	return v.genericMask(e)
}

// genericMask evaluates e per row with the row path's eval.
func (v *vecExec) genericMask(e sqlast.Expr) ([]int8, error) {
	m := make([]int8, v.n)
	for i := 0; i < v.n; i++ {
		val, err := v.ex.eval(e, v.env(i), nil)
		if err != nil {
			return nil, err
		}
		m[i] = truth3(val)
	}
	return m, nil
}

func and3(a, b int8) int8 {
	if a == mFalse || b == mFalse {
		return mFalse
	}
	if a == mNull || b == mNull {
		return mNull
	}
	return mTrue
}

func or3(a, b int8) int8 {
	if a == mTrue || b == mTrue {
		return mTrue
	}
	if a == mNull || b == mNull {
		return mNull
	}
	return mFalse
}

// cmpMask vectorizes a comparison when the operand shapes allow it.
func (v *vecExec) cmpMask(x *sqlast.Binary) ([]int8, error) {
	op := x.Op
	if ci, ok := v.slotCol(x.L); ok {
		if lit, isLit, err := v.constVal(x.R); err != nil {
			return nil, err
		} else if isLit {
			if m, ok := v.cmpColLit(ci, lit, op); ok {
				return m, nil
			}
			return v.genericMask(x)
		}
		if cj, ok := v.slotCol(x.R); ok {
			if m, ok := v.cmpColCol(ci, cj, op); ok {
				return m, nil
			}
		}
		return v.genericMask(x)
	}
	if lit, isLit, err := v.constVal(x.L); err != nil {
		return nil, err
	} else if isLit {
		if ci, ok := v.slotCol(x.R); ok {
			if m, ok := v.cmpColLit(ci, lit, flipCmp(op)); ok {
				return m, nil
			}
		}
	}
	return v.genericMask(x)
}

func (v *vecExec) cmpColLit(ci int, lit Value, op sqlast.BinaryOp) ([]int8, bool) {
	c := &v.ct1.cols[ci]
	if lit.IsNull() || c.kind == kindEmpty {
		return fillMask(v.n, mNull), true
	}
	if lf, ok := lit.numeric(); ok && isNumericKind(c.kind) {
		m := make([]int8, v.n)
		for i := range m {
			if c.null(i) {
				m[i] = mNull
				continue
			}
			m[i] = cmpResult(op, cmpFloat(c.nums[i], lf))
		}
		return m, true
	}
	if lit.T == TypeText && c.kind == kindString {
		m := make([]int8, v.n)
		if op == sqlast.OpEq || op == sqlast.OpNeq {
			want := op == sqlast.OpEq
			for i := range m {
				if c.null(i) {
					m[i] = mNull
					continue
				}
				if (c.strs[i] == lit.S) == want {
					m[i] = mTrue
				}
			}
			return m, true
		}
		for i := range m {
			if c.null(i) {
				m[i] = mNull
				continue
			}
			m[i] = cmpResult(op, cmpText(c.strs[i], lit.S))
		}
		return m, true
	}
	return nil, false
}

func (v *vecExec) cmpColCol(ci, cj int, op sqlast.BinaryOp) ([]int8, bool) {
	a, b := &v.ct1.cols[ci], &v.ct1.cols[cj]
	if a.kind == kindEmpty || b.kind == kindEmpty {
		return fillMask(v.n, mNull), true
	}
	switch {
	case isNumericKind(a.kind) && isNumericKind(b.kind):
		m := make([]int8, v.n)
		for i := range m {
			if a.null(i) || b.null(i) {
				m[i] = mNull
				continue
			}
			m[i] = cmpResult(op, cmpFloat(a.nums[i], b.nums[i]))
		}
		return m, true
	case a.kind == kindString && b.kind == kindString:
		m := make([]int8, v.n)
		for i := range m {
			if a.null(i) || b.null(i) {
				m[i] = mNull
				continue
			}
			m[i] = cmpResult(op, cmpText(a.strs[i], b.strs[i]))
		}
		return m, true
	}
	return nil, false
}

func (v *vecExec) betweenMask(x *sqlast.BetweenExpr) ([]int8, bool, error) {
	ci, ok := v.slotCol(x.X)
	if !ok {
		return nil, false, nil
	}
	lo, lok, err := v.constVal(x.Lo)
	if err != nil {
		return nil, false, err
	}
	hi, hok, err := v.constVal(x.Hi)
	if err != nil {
		return nil, false, err
	}
	if !lok || !hok {
		return nil, false, nil
	}
	c := &v.ct1.cols[ci]
	if lo.IsNull() || hi.IsNull() || c.kind == kindEmpty {
		return fillMask(v.n, mNull), true, nil
	}
	lf, lnum := lo.numeric()
	hf, hnum := hi.numeric()
	switch {
	case isNumericKind(c.kind) && lnum && hnum:
		m := make([]int8, v.n)
		for i := range m {
			if c.null(i) {
				m[i] = mNull
				continue
			}
			f := c.nums[i]
			in := cmpFloat(f, lf) >= 0 && cmpFloat(f, hf) <= 0
			if in != x.Not {
				m[i] = mTrue
			}
		}
		return m, true, nil
	case c.kind == kindString && lo.T == TypeText && hi.T == TypeText:
		m := make([]int8, v.n)
		for i := range m {
			if c.null(i) {
				m[i] = mNull
				continue
			}
			s := c.strs[i]
			in := cmpText(s, lo.S) >= 0 && cmpText(s, hi.S) <= 0
			if in != x.Not {
				m[i] = mTrue
			}
		}
		return m, true, nil
	}
	return nil, false, nil
}

func (v *vecExec) likeMask(x *sqlast.LikeExpr) ([]int8, bool, error) {
	ci, ok := v.slotCol(x.X)
	if !ok {
		return nil, false, nil
	}
	pat, isLit, err := v.constVal(x.Pattern)
	if err != nil {
		return nil, false, err
	}
	if !isLit {
		return nil, false, nil
	}
	c := &v.ct1.cols[ci]
	if pat.IsNull() || c.kind == kindEmpty {
		return fillMask(v.n, mNull), true, nil
	}
	if c.kind != kindString {
		return nil, false, nil
	}
	ps := pat.String()
	m := make([]int8, v.n)
	for i := range m {
		if c.null(i) {
			m[i] = mNull
			continue
		}
		if v.ex.like(c.strs[i], ps) != x.Not {
			m[i] = mTrue
		}
	}
	return m, true, nil
}

func (v *vecExec) inMask(x *sqlast.InExpr) ([]int8, bool, error) {
	if x.Sub != nil {
		return nil, false, nil
	}
	ci, ok := v.slotCol(x.X)
	if !ok {
		return nil, false, nil
	}
	candidates := make([]Value, 0, len(x.List))
	for _, le := range x.List {
		cv, isLit, err := v.constVal(le)
		if err != nil {
			return nil, false, err
		}
		if !isLit {
			return nil, false, nil
		}
		candidates = append(candidates, cv)
	}
	rows := v.vp.t1.Rows
	m := make([]int8, v.n)
	for i := range m {
		val := rows[i][ci]
		if val.IsNull() {
			m[i] = mNull
			continue
		}
		sawNull := false
		matched := false
		for _, cv := range candidates {
			eq, known := Equal(val, cv)
			if !known {
				sawNull = true
				continue
			}
			if eq {
				matched = true
				break
			}
		}
		switch {
		case matched:
			if !x.Not {
				m[i] = mTrue
			}
		case sawNull:
			m[i] = mNull
		default:
			if x.Not {
				m[i] = mTrue
			}
		}
	}
	return m, true, nil
}

// ----------------------------------------------------------------------------
// Grouping

// groupSel partitions the selected context rows by the GROUP BY key,
// mirroring groupRows: appendKey bytes per key expression, groups in
// first-seen order, first row as representative. rep == -1 marks the empty
// global group.
func (v *vecExec) groupSel(selIdx []int32) (groups [][]int32, reps []int32, ok bool) {
	if len(v.stmt.GroupBy) == 0 {
		rep := int32(-1)
		if len(selIdx) > 0 {
			rep = selIdx[0]
		}
		return [][]int32{selIdx}, []int32{rep}, true
	}

	// Fast path: a single bare column key over a typed column partitions
	// identically to its appendKey bytes (the key encodings are injective
	// per kind, and numeric map keys equate -0.0 with 0 just as appendKey
	// renders both as "#0").
	if v.vp.t2 == nil && len(v.stmt.GroupBy) == 1 {
		if ci, isCol := v.slotCol(v.stmt.GroupBy[0]); isCol {
			c := &v.ct1.cols[ci]
			switch {
			case isNumericKind(c.kind):
				groups, reps = groupByKey(selIdx, c.nums, c.nulls)
				return groups, reps, true
			case c.kind == kindString:
				groups, reps = groupByKey(selIdx, c.strs, c.nulls)
				return groups, reps, true
			}
		}
	}

	index := map[string]int32{}
	ids := make([]int32, len(selIdx))
	var kb []byte
	for n, i := range selIdx {
		kb = kb[:0]
		for _, g := range v.stmt.GroupBy {
			val, err := v.ex.eval(g, v.env(int(i)), nil)
			if err != nil {
				return nil, nil, false
			}
			kb = val.appendKey(kb)
			kb = append(kb, '\x1f')
		}
		gi, found := index[string(kb)]
		if !found {
			gi = int32(len(reps))
			index[string(kb)] = gi
			reps = append(reps, i)
		}
		ids[n] = gi
	}
	return bucketRows(selIdx, ids, len(reps)), reps, true
}

// groupByKey partitions the selected rows by keys[i], with every NULL row
// (nulls[i]) in one group placed where its first row was seen. Groups come
// in first-seen order with their first row as representative.
func groupByKey[K comparable](selIdx []int32, keys []K, nulls []bool) (groups [][]int32, reps []int32) {
	index := make(map[K]int32, 64)
	ids := make([]int32, len(selIdx))
	nullGroup := int32(-1)
	for n, i := range selIdx {
		if nulls != nil && nulls[i] {
			if nullGroup < 0 {
				nullGroup = int32(len(reps))
				reps = append(reps, i)
			}
			ids[n] = nullGroup
			continue
		}
		gi, found := index[keys[i]]
		if !found {
			gi = int32(len(reps))
			index[keys[i]] = gi
			reps = append(reps, i)
		}
		ids[n] = gi
	}
	return bucketRows(selIdx, ids, len(reps)), reps
}

// bucketRows splits the selected rows into nGroups groups by group id
// (ids[n] for selIdx[n]), keeping selection order within each group. A
// counting pass sizes every group, so all of them share one backing array.
func bucketRows(selIdx, ids []int32, nGroups int) [][]int32 {
	sizes := make([]int32, nGroups)
	for _, g := range ids {
		sizes[g]++
	}
	backing := make([]int32, len(selIdx))
	groups := make([][]int32, nGroups)
	start := int32(0)
	for g, size := range sizes {
		groups[g] = backing[start : start : start+size]
		start += size
	}
	for n, i := range selIdx {
		groups[ids[n]] = append(groups[ids[n]], i)
	}
	return groups
}

// ----------------------------------------------------------------------------
// Aggregate folds

// gatherSlot reads the value of a depth-0 planned column slot for context
// row i without building an environment.
func (v *vecExec) gatherSlot(i int32, slot colSlot) Value {
	if v.vp.t2 == nil {
		return v.vp.t1.Rows[i][slot.col]
	}
	p := v.pairs[i]
	if slot.binding == 0 {
		return v.vp.t1.Rows[p.l][slot.col]
	}
	if p.r < 0 {
		return Null()
	}
	return v.vp.t2.Rows[p.r][slot.col]
}

// argSlot resolves an aggregate argument as a depth-0 column reference of
// either source.
func (v *vecExec) argSlot(e sqlast.Expr) (colSlot, bool) {
	cr, ok := e.(*sqlast.ColumnRef)
	if !ok || v.ex.plan == nil {
		return colSlot{}, false
	}
	slot, ok := v.ex.plan.cols[cr]
	if !ok || slot.depth != 0 {
		return colSlot{}, false
	}
	max := 1
	if v.vp.t2 != nil {
		max = 2
	}
	if slot.binding >= max {
		return colSlot{}, false
	}
	return slot, true
}

// aggValue folds one aggregate call over a group of context rows, mirroring
// evalAggregate exactly (same NULL skipping, same DISTINCT keys, same
// deferred non-numeric error, same first-wins ties in MIN/MAX). An error
// bails the whole columnar attempt.
func (v *vecExec) aggValue(x *sqlast.FuncCall, group []int32) (Value, error) {
	if x.Star {
		if x.Name != "COUNT" {
			return Value{}, errBail
		}
		return Int(int64(len(group))), nil
	}
	if len(x.Args) != 1 {
		return Value{}, errBail
	}

	// Typed folds over single-table columns.
	if v.vp.t2 == nil && !x.Distinct {
		if ci, ok := v.slotCol(x.Args[0]); ok {
			c := &v.ct1.cols[ci]
			if val, ok := v.typedFold(x.Name, c, ci, group); ok {
				return val, nil
			}
		}
	}

	// Generic fold: per-row argument values (gathered directly for bare
	// column refs, evaluated otherwise), folded with evalAggregate's exact
	// streaming logic.
	slot, fastArg := v.argSlot(x.Args[0])
	var seen map[string]bool
	var kb []byte
	n := 0
	sum := 0.0
	allInt := true
	badNumeric := false
	var best Value
	for _, i := range group {
		var val Value
		if fastArg {
			val = v.gatherSlot(i, slot)
		} else {
			var err error
			val, err = v.ex.eval(x.Args[0], v.env(int(i)), nil)
			if err != nil {
				return Value{}, err
			}
		}
		if val.IsNull() {
			continue
		}
		if x.Distinct {
			if seen == nil {
				seen = map[string]bool{}
			}
			kb = val.appendKey(kb[:0])
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
		}
		n++
		switch x.Name {
		case "SUM", "AVG":
			f, ok := val.AsFloat()
			if !ok {
				badNumeric = true
				continue
			}
			if val.T != TypeInt {
				allInt = false
			}
			if !badNumeric {
				sum += f
			}
		case "MIN", "MAX":
			if n == 1 {
				best = val
			} else if c := Compare(val, best); (x.Name == "MIN" && c < 0) || (x.Name == "MAX" && c > 0) {
				best = val
			}
		}
	}
	switch x.Name {
	case "COUNT":
		return Int(int64(n)), nil
	case "SUM", "AVG":
		if badNumeric {
			return Value{}, errBail
		}
		if n == 0 {
			return Null(), nil
		}
		if x.Name == "AVG" {
			return Float(sum / float64(n)), nil
		}
		if allInt {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	case "MIN", "MAX":
		if n == 0 {
			return Null(), nil
		}
		return best, nil
	}
	return Value{}, errBail
}

// typedFold folds COUNT/SUM/AVG/MIN/MAX over one typed column. ok=false
// falls through to the generic fold.
func (v *vecExec) typedFold(name string, c *colData, ci int, group []int32) (Value, bool) {
	if c.kind == kindEmpty {
		// Every value NULL: COUNT is 0, everything else NULL.
		if name == "COUNT" {
			return Int(0), true
		}
		if name == "SUM" || name == "AVG" || name == "MIN" || name == "MAX" {
			return Null(), true
		}
		return Value{}, false
	}
	switch name {
	case "COUNT":
		if c.kind == kindOther {
			return Value{}, false
		}
		n := 0
		if c.nulls == nil {
			n = len(group)
		} else {
			for _, i := range group {
				if !c.nulls[i] {
					n++
				}
			}
		}
		return Int(int64(n)), true
	case "SUM", "AVG":
		// kindNum would need per-row int/float tags to reproduce SUM's
		// all-int result typing; the generic fold handles it.
		if c.kind != kindInt && c.kind != kindFloat {
			return Value{}, false
		}
		n := 0
		sum := 0.0
		for _, i := range group {
			if c.null(int(i)) {
				continue
			}
			n++
			sum += c.nums[i]
		}
		if n == 0 {
			return Null(), true
		}
		if name == "AVG" {
			return Float(sum / float64(n)), true
		}
		if c.kind == kindInt {
			return Int(int64(sum)), true
		}
		return Float(sum), true
	case "MIN", "MAX":
		isMin := name == "MIN"
		switch {
		case isNumericKind(c.kind):
			bestIdx := int32(-1)
			var bestF float64
			for _, i := range group {
				if c.null(int(i)) {
					continue
				}
				f := c.nums[i]
				if bestIdx < 0 || (isMin && f < bestF) || (!isMin && f > bestF) {
					bestIdx, bestF = i, f
				}
			}
			if bestIdx < 0 {
				return Null(), true
			}
			return v.vp.t1.Rows[bestIdx][ci], true
		case c.kind == kindString:
			bestIdx := int32(-1)
			var bestS string
			for _, i := range group {
				if c.null(int(i)) {
					continue
				}
				s := c.strs[i]
				if bestIdx < 0 {
					bestIdx, bestS = i, s
					continue
				}
				cmp := cmpText(s, bestS)
				if (isMin && cmp < 0) || (!isMin && cmp > 0) {
					bestIdx, bestS = i, s
				}
			}
			if bestIdx < 0 {
				return Null(), true
			}
			return v.vp.t1.Rows[bestIdx][ci], true
		}
	}
	return Value{}, false
}
