package engine

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"fisql/internal/sqlast"
)

// Executor runs SELECT statements against one database. An Executor is not
// safe for concurrent use; they are cheap, so create one per goroutine.
type Executor struct {
	db *Database
	// maxRows caps base-table scans, subquery materialization and
	// intermediate join sizes to guard against accidental cartesian blowups
	// from generated queries.
	maxRows int
	// plan, when set, supplies resolved column slots so eval can index
	// binding values directly instead of scanning names per row.
	plan *Plan
	// noHashJoin forces the nested-loop join path; see SetHashJoin.
	noHashJoin bool
	// noColumnar disables the vectorized columnar path; see SetColumnar.
	noColumnar bool
	// colMinRows gates aggregated columnar plans on table size; see
	// SetColumnarMinRows.
	colMinRows int
	// likePatterns memoizes lowercased LIKE patterns so the per-row match
	// does not re-lower the pattern for every candidate row.
	likePatterns map[string]string
	// subs memoizes the outcome of each uncorrelated subquery for the
	// current Run; see subquery.
	subs map[*sqlast.SelectStmt]subOutcome
}

// DefaultColumnarMinRows is the table size below which aggregated
// statements skip the vectorized path. Scan/filter shapes win at any size
// (the mask kernels have almost no setup), but grouped aggregation pays a
// fixed cost per query — group key extraction, typed fold setup — that a
// tiny table cannot amortize: a ~50-row GROUP BY runs ~15% slower
// vectorized. The crossover sits well under a few hundred rows on the
// benchmark corpora; aggregated plans under this floor take the row path.
const DefaultColumnarMinRows = 128

// NewExecutor returns an executor over db.
func NewExecutor(db *Database) *Executor {
	return &Executor{db: db, maxRows: 2_000_000, colMinRows: DefaultColumnarMinRows}
}

// SetHashJoin toggles the hash equi-join fast path (on by default). The
// nested-loop path is semantically identical; the knob exists so
// differential tests and benchmarks can pin one side.
func (ex *Executor) SetHashJoin(on bool) { ex.noHashJoin = !on }

// SetColumnar toggles the vectorized columnar path Run tries before the
// row-at-a-time executor (on by default). The columnar path is
// result-identical by construction — it bails back to the row path rather
// than diverge — so the knob exists for differential tests and paired
// benchmarks, like SetHashJoin.
func (ex *Executor) SetColumnar(on bool) { ex.noColumnar = !on }

// SetColumnarMinRows overrides DefaultColumnarMinRows for this executor.
// n <= 0 removes the floor: every qualified statement vectorizes, however
// small its tables — the setting differential and kernel tests pin so tiny
// fixtures still exercise the columnar aggregate path.
func (ex *Executor) SetColumnarMinRows(n int) { ex.colMinRows = n }

// Query parses, plans and executes a SELECT given as text. Use a shared
// Cache to amortize the parse+plan work across repeated queries.
func (ex *Executor) Query(sql string) (*Result, error) {
	p, err := Prepare(ex.db, sql)
	if err != nil {
		return nil, err
	}
	return ex.Run(p)
}

// Run executes a prepared plan. The plan must have been prepared against the
// executor's database.
func (ex *Executor) Run(p *Plan) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("nil plan")
	}
	if p.db != ex.db {
		return nil, fmt.Errorf("plan prepared against a different database")
	}
	prevPlan, prevSubs := ex.plan, ex.subs
	ex.plan, ex.subs = p, nil
	defer func() { ex.plan, ex.subs = prevPlan, prevSubs }()
	if !ex.noColumnar {
		if res, ok := ex.runVec(p); ok {
			ex.db.colHits.Add(1)
			return res, nil
		}
		ex.db.colFallbacks.Add(1)
	}
	return ex.execSelect(p.Stmt, nil)
}

// Select executes a parsed SELECT without a planning pass: every column
// reference resolves through the dynamic per-row lookup. This is the
// reference interpreter the differential tests compare planned execution
// against; production paths should prefer Query/Run.
func (ex *Executor) Select(sel *sqlast.SelectStmt) (*Result, error) {
	return ex.execSelect(sel, nil)
}

// ----------------------------------------------------------------------------
// Row environments

// binding exposes one table source's columns under its alias.
type binding struct {
	alias string // lowercase alias or table name
	cols  []string
	vals  []Value
}

// rowEnv is the scope an expression evaluates in: the current row's
// bindings, chained to the enclosing query's scope for correlated
// subqueries.
type rowEnv struct {
	bindings []binding
	outer    *rowEnv
}

// lookup resolves a (possibly qualified) column reference.
func (env *rowEnv) lookup(table, col string) (Value, error) {
	for e := env; e != nil; e = e.outer {
		if table != "" {
			for _, b := range e.bindings {
				if b.alias == strings.ToLower(table) {
					for i, c := range b.cols {
						if strings.EqualFold(c, col) {
							return b.vals[i], nil
						}
					}
					return Value{}, fmt.Errorf("column %s.%s not found", table, col)
				}
			}
			continue // alias might belong to an outer scope
		}
		found := false
		var v Value
		for _, b := range e.bindings {
			for i, c := range b.cols {
				if strings.EqualFold(c, col) {
					if found {
						return Value{}, fmt.Errorf("ambiguous column %q", col)
					}
					found = true
					v = b.vals[i]
				}
			}
		}
		if found {
			return v, nil
		}
	}
	if table != "" {
		return Value{}, fmt.Errorf("unknown table or alias %q", table)
	}
	return Value{}, fmt.Errorf("unknown column %q", col)
}

// ----------------------------------------------------------------------------
// FROM evaluation

// sourceRows materializes one table source as a binding list per row. Scans
// and subquery materializations are capped at maxRows so a huge generated
// base table errors instead of exhausting memory downstream.
func (ex *Executor) sourceRows(ts sqlast.TableSource, outer *rowEnv) (alias string, cols []string, rows [][]Value, err error) {
	if ts.Sub != nil {
		res, err := ex.execSelect(ts.Sub, outer)
		if err != nil {
			return "", nil, nil, err
		}
		alias = strings.ToLower(ts.Alias)
		if alias == "" {
			alias = "subquery"
		}
		if len(res.Rows) > ex.maxRows {
			return "", nil, nil, fmt.Errorf("FROM subquery %q exceeds %d rows", alias, ex.maxRows)
		}
		return alias, res.Columns, res.Rows, nil
	}
	t, ok := ex.db.Table(ts.Name)
	if !ok {
		return "", nil, nil, fmt.Errorf("unknown table %q", ts.Name)
	}
	alias = strings.ToLower(ts.Alias)
	if alias == "" {
		alias = strings.ToLower(ts.Name)
	}
	if len(t.Rows) > ex.maxRows {
		return "", nil, nil, fmt.Errorf("table %q exceeds %d rows", ts.Name, ex.maxRows)
	}
	cols = make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	return alias, cols, t.Rows, nil
}

// fromRows evaluates the FROM clause into a slice of row environments.
func (ex *Executor) fromRows(from *sqlast.FromClause, outer *rowEnv) ([]*rowEnv, error) {
	if from == nil {
		return []*rowEnv{{outer: outer}}, nil
	}
	envs, err := ex.baseEnvs(from.First, outer)
	if err != nil {
		return nil, err
	}
	for i := range from.Joins {
		j := &from.Joins[i]
		jAlias, jCols, jRows, err := ex.sourceRows(j.Source, outer)
		if err != nil {
			return nil, err
		}
		envs, err = ex.joinRows(envs, j, jAlias, jCols, jRows, outer)
		if err != nil {
			return nil, err
		}
	}
	return envs, nil
}

// baseEnvs materializes the first FROM source into row environments. A
// base-table scan with no outer scope reuses the database's shared scan
// environments, so the per-query cost is one pointer-slice copy (the slice
// the WHERE filter compacts in place); everything else bulk-allocates the
// environments and their single-binding slices in three allocations.
// Downstream stages never append to an emitted env's bindings (joins copy
// into a fresh scratch), so the capped one-element slices are safe to share.
func (ex *Executor) baseEnvs(ts sqlast.TableSource, outer *rowEnv) ([]*rowEnv, error) {
	if ts.Sub == nil && outer == nil {
		if t, ok := ex.db.Table(ts.Name); ok {
			if len(t.Rows) > ex.maxRows {
				return nil, fmt.Errorf("table %q exceeds %d rows", ts.Name, ex.maxRows)
			}
			alias := strings.ToLower(ts.Alias)
			if alias == "" {
				alias = strings.ToLower(ts.Name)
			}
			shared := ex.db.scanEnvs(t, alias)
			envs := make([]*rowEnv, len(shared))
			copy(envs, shared)
			return envs, nil
		}
	}
	alias, cols, rows, err := ex.sourceRows(ts, outer)
	if err != nil {
		return nil, err
	}
	envs := make([]*rowEnv, len(rows))
	envStore := make([]rowEnv, len(rows))
	bindStore := make([]binding, len(rows))
	for i, r := range rows {
		bindStore[i] = binding{alias: alias, cols: cols, vals: r}
		envStore[i] = rowEnv{bindings: bindStore[i : i+1 : i+1], outer: outer}
		envs[i] = &envStore[i]
	}
	return envs, nil
}

// joinRows joins the accumulated left side against one new source,
// dispatching to the hash equi-join when the ON clause qualifies and the
// nested loop otherwise. Both paths emit rows in identical (left-major,
// right-source) order, so downstream LIMIT-without-ORDER-BY results and the
// maxRows error point are the same either way.
func (ex *Executor) joinRows(envs []*rowEnv, j *sqlast.Join, jAlias string, jCols []string, jRows [][]Value, outer *rowEnv) ([]*rowEnv, error) {
	if !ex.noHashJoin {
		if spec, ok := ex.equiJoinSpec(envs, j, jAlias, jCols, jRows); ok {
			joined, done, err := ex.hashJoin(envs, j, jAlias, jCols, jRows, outer, spec)
			if err != nil {
				return nil, err
			}
			if done {
				return joined, nil
			}
		}
	}
	return ex.nestedJoin(envs, j, jAlias, jCols, jRows, outer)
}

// envArena snapshots scratch environments for emitted join rows, handing
// out rowEnv structs and binding slices from 256-entry blocks so a join
// emitting k rows costs ~2k/256 heap allocations instead of 2k. The binding
// structs are copied (column-name and value slices stay shared), and the
// carved slices are capacity-capped, so emitted environments are as
// isolated as individually allocated clones.
type envArena struct {
	envs  []rowEnv
	binds []binding
}

func (a *envArena) clone(src *rowEnv) *rowEnv {
	if len(a.envs) == 0 {
		a.envs = make([]rowEnv, 256)
	}
	e := &a.envs[0]
	a.envs = a.envs[1:]
	need := len(src.bindings)
	if len(a.binds) < need {
		a.binds = make([]binding, 256*need)
	}
	b := a.binds[:need:need]
	a.binds = a.binds[need:]
	copy(b, src.bindings)
	e.bindings = b
	e.outer = src.outer
	return e
}

// nestedJoin is the O(n·m) join: every (left, right) pair is materialized
// into a reusable scratch environment and tested against the ON clause; the
// scratch is cloned only for pairs that survive.
func (ex *Executor) nestedJoin(envs []*rowEnv, j *sqlast.Join, jAlias string, jCols []string, jRows [][]Value, outer *rowEnv) ([]*rowEnv, error) {
	joined := make([]*rowEnv, 0, len(envs))
	var nulls []Value
	if j.Type == sqlast.JoinLeft {
		nulls = make([]Value, len(jCols))
		for i := range nulls {
			nulls[i] = Null()
		}
	}
	scratch := &rowEnv{outer: outer}
	var arena envArena
	for _, left := range envs {
		nb := len(left.bindings)
		if cap(scratch.bindings) < nb+1 {
			scratch.bindings = make([]binding, nb+1)
		}
		scratch.bindings = scratch.bindings[:nb+1]
		copy(scratch.bindings, left.bindings)
		scratch.bindings[nb] = binding{alias: jAlias, cols: jCols}
		matched := false
		for _, r := range jRows {
			scratch.bindings[nb].vals = r
			if j.On != nil {
				ok, err := ex.evalBool(j.On, scratch, nil)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			matched = true
			joined = append(joined, arena.clone(scratch))
			if len(joined) > ex.maxRows {
				return nil, fmt.Errorf("join result exceeds %d rows", ex.maxRows)
			}
		}
		if !matched && j.Type == sqlast.JoinLeft {
			scratch.bindings[nb].vals = nulls
			joined = append(joined, arena.clone(scratch))
		}
	}
	return joined, nil
}

// ----------------------------------------------------------------------------
// Hash equi-join
//
// The fast path replaces the nested loop when the ON clause is a conjunction
// in which (a) one equality compares a column of the accumulated left side
// with a column of the newly joined source, (b) every conjunct is free of
// runtime errors by construction (so skipping its evaluation for pairs the
// hash table filters out cannot suppress an error the nested loop would
// raise), and (c) the key columns' non-NULL values are all numeric or all
// text on both sides. Condition (c) matters because Compare's equality is
// not transitive across types — Text("5") equals Int(5) and Bool(true)
// equals both Int(1) and Text("true") — so a string hash key is only
// faithful on a homogeneous domain: numbers hash by their float64 rendering
// (Compare treats int/float numerically) and text hashes by the exact string
// (case-insensitive compare plus exact tiebreak makes text equality exact
// string equality). Anything else bails to the nested loop.

// equiJoinSpec describes one hashable equality conjunct of a JOIN ON plus
// the remaining (residual) conjuncts evaluated per candidate pair.
type equiJoinSpec struct {
	leftBinding int // key column on the accumulated left side...
	leftCol     int
	rightCol    int  // ...equated with this column of the new source
	numeric     bool // key domain: numeric (int/float) vs text
	residual    []sqlast.Expr
}

// splitAnd flattens a conjunction into its top-level conjuncts.
func splitAnd(e sqlast.Expr) []sqlast.Expr {
	if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sqlast.Expr{e}
}

// resolveJoinRef resolves a column reference against the join's two sides
// using the same rules as rowEnv.lookup (first alias match wins; bare names
// must be unambiguous). ok=false means the reference is unknown, ambiguous,
// or belongs to an outer scope — all reasons to keep the nested loop.
func resolveJoinRef(left []binding, rightAlias string, rightCols []string, table, col string) (onRight bool, bindIdx, colIdx int, ok bool) {
	if table != "" {
		want := strings.ToLower(table)
		for bi := range left {
			if left[bi].alias != want {
				continue
			}
			for ci, cn := range left[bi].cols {
				if strings.EqualFold(cn, col) {
					return false, bi, ci, true
				}
			}
			return false, 0, 0, false // first alias match lacks the column
		}
		if rightAlias == want {
			for ci, cn := range rightCols {
				if strings.EqualFold(cn, col) {
					return true, 0, ci, true
				}
			}
		}
		return false, 0, 0, false
	}
	count := 0
	for bi := range left {
		for ci, cn := range left[bi].cols {
			if strings.EqualFold(cn, col) {
				count++
				if count == 1 {
					onRight, bindIdx, colIdx = false, bi, ci
				}
			}
		}
	}
	for ci, cn := range rightCols {
		if strings.EqualFold(cn, col) {
			count++
			if count == 1 {
				onRight, colIdx = true, ci
			}
		}
	}
	if count != 1 {
		return false, 0, 0, false
	}
	return onRight, bindIdx, colIdx, true
}

// joinOperandSafe reports whether e evaluates without any possibility of
// error for every candidate join row: a resolvable column reference or a
// literal whose text parses.
func joinOperandSafe(e sqlast.Expr, left []binding, rightAlias string, rightCols []string) bool {
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		_, _, _, ok := resolveJoinRef(left, rightAlias, rightCols, x.Table, x.Column)
		return ok
	case *sqlast.Literal:
		if x.Kind != sqlast.LitNumber {
			return true
		}
		// Number literals are re-parsed at eval time and can fail there.
		var err error
		if strings.Contains(x.Text, ".") {
			_, err = strconv.ParseFloat(x.Text, 64)
		} else {
			_, err = strconv.ParseInt(x.Text, 10, 64)
		}
		return err == nil
	}
	return false
}

// joinConjunctSafe restricts residual conjuncts to comparisons and IS NULL
// checks over safe operands — forms whose evaluation cannot error, so the
// hash path skipping them for non-matching pairs is unobservable.
func joinConjunctSafe(e sqlast.Expr, left []binding, rightAlias string, rightCols []string) bool {
	switch x := e.(type) {
	case *sqlast.Binary:
		switch x.Op {
		case sqlast.OpEq, sqlast.OpNeq, sqlast.OpLt, sqlast.OpLte, sqlast.OpGt, sqlast.OpGte:
			return joinOperandSafe(x.L, left, rightAlias, rightCols) &&
				joinOperandSafe(x.R, left, rightAlias, rightCols)
		}
		return false
	case *sqlast.IsNullExpr:
		return joinOperandSafe(x.X, left, rightAlias, rightCols)
	}
	return false
}

// equiJoinSpec extracts a hashable equality from the ON clause, or reports
// that this join must run as a nested loop.
func (ex *Executor) equiJoinSpec(envs []*rowEnv, j *sqlast.Join, jAlias string, jCols []string, jRows [][]Value) (*equiJoinSpec, bool) {
	if j.On == nil || len(envs) == 0 {
		return nil, false
	}
	left := envs[0].bindings // all envs share the same binding structure
	conjs := splitAnd(j.On)
	for _, c := range conjs {
		if !joinConjunctSafe(c, left, jAlias, jCols) {
			return nil, false
		}
	}
	spec := &equiJoinSpec{}
	keyIdx := -1
	for i, c := range conjs {
		b, ok := c.(*sqlast.Binary)
		if !ok || b.Op != sqlast.OpEq {
			continue
		}
		lref, lok := b.L.(*sqlast.ColumnRef)
		rref, rok := b.R.(*sqlast.ColumnRef)
		if !lok || !rok {
			continue
		}
		lRight, lb, lc, ok1 := resolveJoinRef(left, jAlias, jCols, lref.Table, lref.Column)
		rRight, rb, rc, ok2 := resolveJoinRef(left, jAlias, jCols, rref.Table, rref.Column)
		if !ok1 || !ok2 || lRight == rRight {
			continue // both operands on the same side: not a cross-side key
		}
		if lRight {
			spec.leftBinding, spec.leftCol, spec.rightCol = rb, rc, lc
		} else {
			spec.leftBinding, spec.leftCol, spec.rightCol = lb, lc, rc
		}
		keyIdx = i
		break
	}
	if keyIdx < 0 {
		return nil, false
	}
	spec.residual = append(conjs[:keyIdx:keyIdx], conjs[keyIdx+1:]...)

	// Verify the key domain is homogeneous (all numeric or all text across
	// both sides' non-NULL values); Bool or a mixed domain bails out.
	const (
		domNone = iota
		domNum
		domText
	)
	dom := domNone
	classify := func(v Value) bool {
		switch v.T {
		case TypeNull:
			return true
		case TypeInt, TypeFloat:
			if dom == domText {
				return false
			}
			dom = domNum
			return true
		case TypeText:
			if dom == domNum {
				return false
			}
			dom = domText
			return true
		}
		return false // TypeBool equates with both numbers and text
	}
	for _, le := range envs {
		if !classify(le.bindings[spec.leftBinding].vals[spec.leftCol]) {
			return nil, false
		}
	}
	for _, r := range jRows {
		if !classify(r[spec.rightCol]) {
			return nil, false
		}
	}
	spec.numeric = dom == domNum
	return spec, true
}

// joinKey is a typed hash-join key. On a homogeneous numeric domain two
// values Compare-equal exactly when their float64 renderings are equal, so
// the key is the float's bit pattern (-0.0 folded into 0 so the two zeros
// collide); on a text domain equality is exact string equality, so the key
// is the raw string. A typed key avoids the strconv.FormatFloat allocation
// the previous string key paid per probe/build row.
type joinKey struct {
	f uint64
	s string
}

// makeJoinKey builds the hash key for one value. Numeric keys collapse
// int/float the way Compare does.
func makeJoinKey(v Value, numeric bool) joinKey {
	if numeric {
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0
		}
		return joinKey{f: math.Float64bits(f)}
	}
	return joinKey{s: v.S}
}

// hashJoin executes the join described by spec, building a hash table on the
// smaller side. Emission order is left-major regardless of build side: when
// the left side is the build side, right-row matches are accumulated per
// left row first. done=false (with nil error) means the accumulation grew
// past maxRows and the caller should fall back to the nested loop, which
// owns the exact error-point semantics for pathological joins.
func (ex *Executor) hashJoin(envs []*rowEnv, j *sqlast.Join, jAlias string, jCols []string, jRows [][]Value, outer *rowEnv, spec *equiJoinSpec) ([]*rowEnv, bool, error) {
	leftKey := func(le *rowEnv) Value { return le.bindings[spec.leftBinding].vals[spec.leftCol] }

	// probe yields the candidate right-row indices for one left row, in
	// right-source order. NULL keys never match (Compare-equality with NULL
	// is unknown), so they are skipped on both sides.
	var probe func(li int, le *rowEnv) []int
	if len(jRows) <= len(envs) {
		ht := make(map[joinKey][]int, len(jRows))
		for ri, r := range jRows {
			v := r[spec.rightCol]
			if v.IsNull() {
				continue
			}
			k := makeJoinKey(v, spec.numeric)
			ht[k] = append(ht[k], ri)
		}
		probe = func(_ int, le *rowEnv) []int {
			v := leftKey(le)
			if v.IsNull() {
				return nil
			}
			return ht[makeJoinKey(v, spec.numeric)]
		}
	} else {
		ht := make(map[joinKey][]int, len(envs))
		for li, le := range envs {
			v := leftKey(le)
			if v.IsNull() {
				continue
			}
			k := makeJoinKey(v, spec.numeric)
			ht[k] = append(ht[k], li)
		}
		lists := make([][]int, len(envs))
		total := 0
		for ri, r := range jRows {
			v := r[spec.rightCol]
			if v.IsNull() {
				continue
			}
			for _, li := range ht[makeJoinKey(v, spec.numeric)] {
				lists[li] = append(lists[li], ri)
				total++
				if total > ex.maxRows {
					return nil, false, nil
				}
			}
		}
		probe = func(li int, _ *rowEnv) []int { return lists[li] }
	}

	joined := make([]*rowEnv, 0, len(envs))
	var nulls []Value
	if j.Type == sqlast.JoinLeft {
		nulls = make([]Value, len(jCols))
		for i := range nulls {
			nulls[i] = Null()
		}
	}
	scratch := &rowEnv{outer: outer}
	var arena envArena
	for li, left := range envs {
		nb := len(left.bindings)
		if cap(scratch.bindings) < nb+1 {
			scratch.bindings = make([]binding, nb+1)
		}
		scratch.bindings = scratch.bindings[:nb+1]
		copy(scratch.bindings, left.bindings)
		scratch.bindings[nb] = binding{alias: jAlias, cols: jCols}
		matched := false
		for _, ri := range probe(li, left) {
			scratch.bindings[nb].vals = jRows[ri]
			pass := true
			for _, c := range spec.residual {
				ok, err := ex.evalBool(c, scratch, nil)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					pass = false
					break
				}
			}
			if !pass {
				continue
			}
			matched = true
			joined = append(joined, arena.clone(scratch))
			if len(joined) > ex.maxRows {
				return nil, false, fmt.Errorf("join result exceeds %d rows", ex.maxRows)
			}
		}
		if !matched && j.Type == sqlast.JoinLeft {
			scratch.bindings[nb].vals = nulls
			joined = append(joined, arena.clone(scratch))
		}
	}
	return joined, true, nil
}

// ----------------------------------------------------------------------------
// Expression evaluation

// evalCtx carries the optional aggregate group: when non-nil, aggregate
// function calls evaluate over these rows instead of erroring.
type evalCtx struct {
	group []*rowEnv
	// aggNodes and aggVals, when set, supply precomputed per-group
	// aggregate values: aggVals[k] is the value of call node aggNodes[k].
	// The vectorized path folds aggregates over column arrays instead of
	// row environments and injects the results here, so scalar evaluation
	// of HAVING/items/ORDER BY stays the row path's own code. Nodes absent
	// from aggNodes fall through to the group fold.
	aggNodes []*sqlast.FuncCall
	aggVals  []Value
}

func (ex *Executor) evalBool(e sqlast.Expr, env *rowEnv, ctx *evalCtx) (bool, error) {
	v, err := ex.eval(e, env, ctx)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

func (ex *Executor) eval(e sqlast.Expr, env *rowEnv, ctx *evalCtx) (Value, error) {
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		// Planned references read their value by slot index; anything the
		// planner left unresolved (or an env shape the slot does not fit,
		// e.g. the empty representative env of a global aggregation over no
		// rows) falls back to the dynamic name scan, which raises the
		// interpreter's errors at the interpreter's moments.
		if ex.plan != nil {
			if slot, ok := ex.plan.cols[x]; ok {
				e := env
				for d := 0; d < slot.depth && e != nil; d++ {
					e = e.outer
				}
				if e != nil && slot.binding < len(e.bindings) {
					b := &e.bindings[slot.binding]
					if slot.col < len(b.vals) {
						return b.vals[slot.col], nil
					}
				}
			}
		}
		return env.lookup(x.Table, x.Column)
	case *sqlast.Literal:
		switch x.Kind {
		case sqlast.LitNull:
			return Null(), nil
		case sqlast.LitBool:
			return Bool(x.Text == "TRUE"), nil
		case sqlast.LitString:
			return Text(x.Text), nil
		case sqlast.LitNumber:
			if strings.Contains(x.Text, ".") {
				f, err := strconv.ParseFloat(x.Text, 64)
				if err != nil {
					return Value{}, fmt.Errorf("bad number %q", x.Text)
				}
				return Float(f), nil
			}
			i, err := strconv.ParseInt(x.Text, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("bad number %q", x.Text)
			}
			return Int(i), nil
		}
		return Value{}, fmt.Errorf("bad literal kind %d", x.Kind)
	case *sqlast.Binary:
		return ex.evalBinary(x, env, ctx)
	case *sqlast.Unary:
		v, err := ex.eval(x.X, env, ctx)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case sqlast.OpNot:
			if v.IsNull() {
				return Null(), nil
			}
			return Bool(!v.Truthy()), nil
		case sqlast.OpNeg:
			switch v.T {
			case TypeInt:
				return Int(-v.I), nil
			case TypeFloat:
				return Float(-v.F()), nil
			case TypeNull:
				return Null(), nil
			}
			return Value{}, fmt.Errorf("cannot negate %s", v.T)
		}
		return Value{}, fmt.Errorf("bad unary op %d", x.Op)
	case *sqlast.FuncCall:
		return ex.evalFunc(x, env, ctx)
	case *sqlast.InExpr:
		return ex.evalIn(x, env, ctx)
	case *sqlast.BetweenExpr:
		v, err := ex.eval(x.X, env, ctx)
		if err != nil {
			return Value{}, err
		}
		lo, err := ex.eval(x.Lo, env, ctx)
		if err != nil {
			return Value{}, err
		}
		hi, err := ex.eval(x.Hi, env, ctx)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null(), nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if x.Not {
			in = !in
		}
		return Bool(in), nil
	case *sqlast.LikeExpr:
		v, err := ex.eval(x.X, env, ctx)
		if err != nil {
			return Value{}, err
		}
		pat, err := ex.eval(x.Pattern, env, ctx)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || pat.IsNull() {
			return Null(), nil
		}
		m := ex.like(v.String(), pat.String())
		if x.Not {
			m = !m
		}
		return Bool(m), nil
	case *sqlast.IsNullExpr:
		v, err := ex.eval(x.X, env, ctx)
		if err != nil {
			return Value{}, err
		}
		isNull := v.IsNull()
		if x.Not {
			isNull = !isNull
		}
		return Bool(isNull), nil
	case *sqlast.ExistsExpr:
		out := ex.subquery(x.Sub, env, existsOutcome)
		if out.err != nil {
			return Value{}, out.err
		}
		if x.Not {
			return Bool(!out.val.B), nil
		}
		return out.val, nil
	case *sqlast.SubqueryExpr:
		out := ex.subquery(x.Sub, env, scalarOutcome)
		return out.val, out.err
	case *sqlast.CaseExpr:
		for _, w := range x.Whens {
			ok, err := ex.evalBool(w.When, env, ctx)
			if err != nil {
				return Value{}, err
			}
			if ok {
				return ex.eval(w.Then, env, ctx)
			}
		}
		if x.Else != nil {
			return ex.eval(x.Else, env, ctx)
		}
		return Null(), nil
	}
	return Value{}, fmt.Errorf("unsupported expression %T", e)
}

func (ex *Executor) evalBinary(x *sqlast.Binary, env *rowEnv, ctx *evalCtx) (Value, error) {
	// AND/OR get three-valued logic with short-circuiting.
	if x.Op == sqlast.OpAnd || x.Op == sqlast.OpOr {
		l, err := ex.eval(x.L, env, ctx)
		if err != nil {
			return Value{}, err
		}
		if x.Op == sqlast.OpAnd && !l.IsNull() && !l.Truthy() {
			return Bool(false), nil
		}
		if x.Op == sqlast.OpOr && !l.IsNull() && l.Truthy() {
			return Bool(true), nil
		}
		r, err := ex.eval(x.R, env, ctx)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			// a AND NULL is NULL unless a is false (handled above);
			// a OR NULL is NULL unless a is true (handled above).
			if x.Op == sqlast.OpAnd && !r.IsNull() && !r.Truthy() {
				return Bool(false), nil
			}
			if x.Op == sqlast.OpOr && !r.IsNull() && r.Truthy() {
				return Bool(true), nil
			}
			return Null(), nil
		}
		if x.Op == sqlast.OpAnd {
			return Bool(l.Truthy() && r.Truthy()), nil
		}
		return Bool(l.Truthy() || r.Truthy()), nil
	}
	l, err := ex.eval(x.L, env, ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := ex.eval(x.R, env, ctx)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case sqlast.OpEq, sqlast.OpNeq, sqlast.OpLt, sqlast.OpLte, sqlast.OpGt, sqlast.OpGte:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c := Compare(l, r)
		switch x.Op {
		case sqlast.OpEq:
			return Bool(c == 0), nil
		case sqlast.OpNeq:
			return Bool(c != 0), nil
		case sqlast.OpLt:
			return Bool(c < 0), nil
		case sqlast.OpLte:
			return Bool(c <= 0), nil
		case sqlast.OpGt:
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpDiv, sqlast.OpMod:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return Value{}, fmt.Errorf("arithmetic on non-numeric values %s, %s", l.T, r.T)
		}
		bothInt := l.T == TypeInt && r.T == TypeInt
		switch x.Op {
		case sqlast.OpAdd:
			if bothInt {
				return Int(l.I + r.I), nil
			}
			return Float(lf + rf), nil
		case sqlast.OpSub:
			if bothInt {
				return Int(l.I - r.I), nil
			}
			return Float(lf - rf), nil
		case sqlast.OpMul:
			if bothInt {
				return Int(l.I * r.I), nil
			}
			return Float(lf * rf), nil
		case sqlast.OpDiv:
			if rf == 0 {
				return Null(), nil
			}
			return Float(lf / rf), nil
		default: // OpMod
			if !bothInt || r.I == 0 {
				return Null(), nil
			}
			return Int(l.I % r.I), nil
		}
	}
	return Value{}, fmt.Errorf("bad binary op %d", x.Op)
}

func (ex *Executor) evalIn(x *sqlast.InExpr, env *rowEnv, ctx *evalCtx) (Value, error) {
	v, err := ex.eval(x.X, env, ctx)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() {
		return Null(), nil
	}
	var found, sawNull bool
	if x.Sub != nil {
		out := ex.subquery(x.Sub, env, inOutcome)
		if out.err != nil {
			return Value{}, out.err
		}
		found, sawNull = out.in.contains(v), out.in.sawNull
	} else {
		candidates := make([]Value, 0, len(x.List))
		for _, le := range x.List {
			c, err := ex.eval(le, env, ctx)
			if err != nil {
				return Value{}, err
			}
			candidates = append(candidates, c)
		}
		for _, c := range candidates {
			eq, known := Equal(v, c)
			if !known {
				sawNull = true
			} else if eq {
				found = true
				break
			}
		}
	}
	switch {
	case found:
		return Bool(!x.Not), nil
	case sawNull:
		return Null(), nil
	}
	return Bool(x.Not), nil
}

// ----------------------------------------------------------------------------
// Subqueries
//
// A subquery expression runs its statement at the moment eval reaches it.
// When the running plan marks the statement uncorrelated (see plan.go), its
// outcome — value, candidate set or error — cannot depend on the outer row,
// so the first evaluation in a Run is memoized and every later outer row
// reuses it. The first use stays where the interpreter's evaluation is, so
// a subquery that would error over an empty outer table still never runs.
// The memo lives for one Run, so there is nothing to invalidate, and the
// unplanned Select keeps per-row evaluation as the reference.

// subOutcome is one subquery evaluation reduced to what its expression
// needs: a scalar value, EXISTS as a Bool, or an IN candidate set.
type subOutcome struct {
	val Value
	in  *inSet
	err error
}

// subquery runs sel for the outer row env and reduces the result, reusing
// the Run's memoized outcome when sel is uncorrelated.
func (ex *Executor) subquery(sel *sqlast.SelectStmt, env *rowEnv, reduce func(res *Result, memo bool) subOutcome) subOutcome {
	memo := ex.plan != nil && ex.plan.uncorrelated[sel]
	if memo {
		if out, ok := ex.subs[sel]; ok {
			return out
		}
	}
	var out subOutcome
	if res, err := ex.execSelect(sel, env); err != nil {
		out.err = err
	} else {
		out = reduce(res, memo)
	}
	if memo {
		if ex.subs == nil {
			ex.subs = make(map[*sqlast.SelectStmt]subOutcome)
		}
		ex.subs[sel] = out
	}
	return out
}

func scalarOutcome(res *Result, _ bool) subOutcome {
	switch {
	case len(res.Rows) == 0:
		return subOutcome{val: Null()}
	case len(res.Columns) != 1:
		return subOutcome{err: fmt.Errorf("scalar subquery returned %d columns", len(res.Columns))}
	case len(res.Rows) > 1:
		return subOutcome{err: fmt.Errorf("scalar subquery returned %d rows", len(res.Rows))}
	}
	return subOutcome{val: res.Rows[0][0]}
}

func existsOutcome(res *Result, _ bool) subOutcome {
	return subOutcome{val: Bool(len(res.Rows) > 0)}
}

func inOutcome(res *Result, memo bool) subOutcome {
	if len(res.Columns) != 1 {
		return subOutcome{err: fmt.Errorf("IN subquery returned %d columns", len(res.Columns))}
	}
	return subOutcome{in: newInSet(res.Rows, memo)}
}

// inSet is an IN subquery's candidate column. NULL candidates only set
// sawNull: they never equal the probe. A memoized set that will be probed
// once per outer row also gets a hash index under the hash join's rule:
// Compare equality is not transitive across types, so the index exists
// only when the non-NULL candidates are all numbers (no NaN) or all text,
// and only probes of that same domain use it. Everything else — a mixed
// or Bool domain, a Text probe of a numeric set, a NaN — scans the column
// with Compare, exactly as the per-row path does.
type inSet struct {
	vals    []Value
	sawNull bool
	numeric bool
	hash    map[joinKey]struct{}
}

func newInSet(rows [][]Value, index bool) *inSet {
	s := &inSet{vals: make([]Value, 0, len(rows))}
	for _, row := range rows {
		if row[0].IsNull() {
			s.sawNull = true
			continue
		}
		s.vals = append(s.vals, row[0])
	}
	if !index || len(s.vals) == 0 {
		return s
	}
	s.numeric = s.vals[0].T != TypeText
	for _, c := range s.vals {
		if !s.hashable(c) {
			return s
		}
	}
	s.hash = make(map[joinKey]struct{}, len(s.vals))
	for _, c := range s.vals {
		s.hash[makeJoinKey(c, s.numeric)] = struct{}{}
	}
	return s
}

// hashable reports whether v belongs to the set's hash domain.
func (s *inSet) hashable(v Value) bool {
	switch v.T {
	case TypeInt:
		return s.numeric
	case TypeFloat:
		return s.numeric && !math.IsNaN(v.F())
	case TypeText:
		return !s.numeric
	}
	return false
}

// contains reports whether the non-NULL probe v equals any candidate.
func (s *inSet) contains(v Value) bool {
	if s.hash != nil && s.hashable(v) {
		_, ok := s.hash[makeJoinKey(v, s.numeric)]
		return ok
	}
	for _, c := range s.vals {
		if Compare(v, c) == 0 {
			return true
		}
	}
	return false
}

// like matches s against a LIKE pattern, memoizing the lowered pattern so a
// WHERE ... LIKE 'literal' lowers the pattern once per query, not per row.
func (ex *Executor) like(s, pattern string) bool {
	lp, ok := ex.likePatterns[pattern]
	if !ok {
		if ex.likePatterns == nil || len(ex.likePatterns) >= 256 {
			ex.likePatterns = make(map[string]string)
		}
		lp = strings.ToLower(pattern)
		ex.likePatterns[pattern] = lp
	}
	return likeMatchLower(strings.ToLower(s), lp)
}

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitively.
func likeMatch(s, pattern string) bool {
	return likeMatchLower(strings.ToLower(s), strings.ToLower(pattern))
}

// likeMatchLower is an iterative two-pointer matcher over pre-lowered
// inputs: O(len(s)·len(p)) worst case. On a mismatch it backtracks to the
// most recent '%' and retries with that wildcard consuming one more
// character, instead of the exponential recursion a naive matcher does on
// patterns like %a%a%a%...
//
// Wildcards are defined over characters, not bytes: '_' must consume one
// full rune ('é' LIKE '_' is true) and '%' backtracking must advance by
// whole runes, never splitting a UTF-8 sequence. Pure-ASCII inputs — the
// overwhelmingly common case — take a byte-wise fast path with no
// allocation; anything multi-byte falls back to a rune-wise run of the
// same algorithm.
func likeMatchLower(s, p string) bool {
	if isASCII(s) && isASCII(p) {
		si, pi := 0, 0
		starP, starS := -1, 0
		for si < len(s) {
			if pi < len(p) && (p[pi] == '_' || p[pi] == s[si]) {
				si++
				pi++
			} else if pi < len(p) && p[pi] == '%' {
				starP, starS = pi, si
				pi++
			} else if starP >= 0 {
				starS++
				si, pi = starS, starP+1
			} else {
				return false
			}
		}
		for pi < len(p) && p[pi] == '%' {
			pi++
		}
		return pi == len(p)
	}
	return likeMatchRunes([]rune(s), []rune(p))
}

// likeMatchRunes is the rune-wise twin of the ASCII loop above.
func likeMatchRunes(s, p []rune) bool {
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		if pi < len(p) && (p[pi] == '_' || p[pi] == s[si]) {
			si++
			pi++
		} else if pi < len(p) && p[pi] == '%' {
			starP, starS = pi, si
			pi++
		} else if starP >= 0 {
			starS++
			si, pi = starS, starP+1
		} else {
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// ----------------------------------------------------------------------------
// Aggregates

func isAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// hasAggregate reports whether e contains an aggregate call outside
// subqueries.
func hasAggregate(e sqlast.Expr) bool {
	found := false
	sqlast.Walk(e, func(n sqlast.Expr) bool {
		switch x := n.(type) {
		case *sqlast.FuncCall:
			if isAggregateName(x.Name) {
				found = true
				return false
			}
		case *sqlast.SubqueryExpr, *sqlast.ExistsExpr:
			return false // do not descend into subqueries
		case *sqlast.InExpr:
			if x.Sub != nil {
				sqlast.Walk(x.X, func(m sqlast.Expr) bool {
					if fc, ok := m.(*sqlast.FuncCall); ok && isAggregateName(fc.Name) {
						found = true
						return false
					}
					return true
				})
				return false
			}
		}
		return true
	})
	return found
}

func (ex *Executor) evalFunc(x *sqlast.FuncCall, env *rowEnv, ctx *evalCtx) (Value, error) {
	if isAggregateName(x.Name) {
		if ctx != nil {
			for k, node := range ctx.aggNodes {
				if node == x {
					return ctx.aggVals[k], nil
				}
			}
		}
		if ctx == nil || ctx.group == nil {
			return Value{}, fmt.Errorf("aggregate %s used outside aggregation context", x.Name)
		}
		return ex.evalAggregate(x, ctx.group)
	}
	// Scalar functions.
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ex.eval(a, env, ctx)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch x.Name {
	case "LENGTH":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("LENGTH takes 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].String()))), nil
	case "LOWER":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("LOWER takes 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToLower(args[0].String())), nil
	case "UPPER":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("UPPER takes 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToUpper(args[0].String())), nil
	case "ABS":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("ABS takes 1 argument")
		}
		switch args[0].T {
		case TypeNull:
			return Null(), nil
		case TypeInt:
			if args[0].I < 0 {
				return Int(-args[0].I), nil
			}
			return args[0], nil
		case TypeFloat:
			if args[0].F() < 0 {
				return Float(-args[0].F()), nil
			}
			return args[0], nil
		}
		return Value{}, fmt.Errorf("ABS of non-numeric value")
	}
	return Value{}, fmt.Errorf("unknown function %q", x.Name)
}

func (ex *Executor) evalAggregate(x *sqlast.FuncCall, group []*rowEnv) (Value, error) {
	// COUNT(*) counts rows; everything else evaluates the argument per row
	// and skips NULLs.
	if x.Star {
		if x.Name != "COUNT" {
			return Value{}, fmt.Errorf("%s(*) is not valid", x.Name)
		}
		return Int(int64(len(group))), nil
	}
	if len(x.Args) != 1 {
		return Value{}, fmt.Errorf("%s takes 1 argument", x.Name)
	}
	// One streaming pass: the argument is evaluated for every row (so
	// argument-evaluation errors surface exactly as before) and folded into
	// the running aggregate without materializing a value slice. The
	// SUM/AVG non-numeric error is deferred until after the loop because
	// the two-pass version it replaces reported evaluation errors from
	// later rows ahead of it.
	var seen map[string]bool
	var kb []byte
	n := 0
	sum := 0.0
	allInt := true
	badNumeric := false
	var best Value
	for _, env := range group {
		v, err := ex.eval(x.Args[0], env, nil)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			if seen == nil {
				seen = map[string]bool{}
			}
			kb = v.appendKey(kb[:0])
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
		}
		n++
		switch x.Name {
		case "SUM", "AVG":
			f, ok := v.AsFloat()
			if !ok {
				badNumeric = true
				continue
			}
			if v.T != TypeInt {
				allInt = false
			}
			if !badNumeric {
				sum += f
			}
		case "MIN", "MAX":
			if n == 1 {
				best = v
			} else if c := Compare(v, best); (x.Name == "MIN" && c < 0) || (x.Name == "MAX" && c > 0) {
				best = v
			}
		}
	}
	switch x.Name {
	case "COUNT":
		return Int(int64(n)), nil
	case "SUM", "AVG":
		if badNumeric {
			return Value{}, fmt.Errorf("%s of non-numeric value", x.Name)
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
	return Value{}, fmt.Errorf("unknown aggregate %q", x.Name)
}

// ----------------------------------------------------------------------------
// SELECT execution

func (ex *Executor) execSelect(sel *sqlast.SelectStmt, outer *rowEnv) (*Result, error) {
	res, proj, err := ex.execCore(sel, outer)
	if err != nil {
		return nil, err
	}
	// Set operations combine projected row sets.
	for c := sel.Compound; c != nil; {
		right, _, err := ex.execCore(c.Right, outer)
		if err != nil {
			return nil, err
		}
		if len(right.Columns) != len(res.Columns) {
			return nil, fmt.Errorf("%s arms have %d vs %d columns", c.Op, len(res.Columns), len(right.Columns))
		}
		res.Rows = combineSetOp(c.Op, res.Rows, right.Rows)
		c = c.Right.Compound
	}
	src := orderSrc{env: func(i int) (*rowEnv, *evalCtx) { return proj[i].env, proj[i].ctx }}
	if sel.Compound != nil {
		// A compound's rows come from several arms: its ORDER BY resolves
		// output columns, select-item matches and ordinals only.
		src = orderSrc{}
		switch sel.Compound.Op {
		case sqlast.SetUnion, sqlast.SetIntersect, sqlast.SetExcept:
			res.Rows = dedupeRows(res.Rows)
		}
	}
	// ORDER BY over the final projected rows.
	if len(sel.OrderBy) > 0 {
		if err := ex.orderRows(sel, res, src); err != nil {
			return nil, err
		}
		res.Ordered = true
	}
	if err := ex.limitRows(sel, res, outer); err != nil {
		return nil, err
	}
	return res, nil
}

// limitRows applies sel's LIMIT/OFFSET to res. Both evaluate in an empty
// scope chained to outer. A non-INT OFFSET skips nothing.
func (ex *Executor) limitRows(sel *sqlast.SelectStmt, res *Result, outer *rowEnv) error {
	if sel.Limit == nil {
		return nil
	}
	lim, err := ex.eval(sel.Limit, &rowEnv{outer: outer}, nil)
	if err != nil {
		return err
	}
	off := int64(0)
	if sel.Offset != nil {
		ov, err := ex.eval(sel.Offset, &rowEnv{outer: outer}, nil)
		if err != nil {
			return err
		}
		if ov.T == TypeInt {
			off = ov.I
		}
	}
	n, _ := lim.AsFloat()
	limit := int(n)
	start := int(off)
	if start > len(res.Rows) {
		start = len(res.Rows)
	}
	end := start + limit
	if limit < 0 || end > len(res.Rows) {
		end = len(res.Rows)
	}
	res.Rows = res.Rows[start:end]
	return nil
}

func combineSetOp(op sqlast.SetOp, a, b [][]Value) [][]Value {
	switch op {
	case sqlast.SetUnion, sqlast.SetUnionAll:
		return append(a, b...)
	case sqlast.SetIntersect:
		keys := map[string]bool{}
		var kb []byte
		for _, r := range b {
			keys[rowKey(r)] = true
		}
		var out [][]Value
		for _, r := range a {
			kb = rowKeyAppend(kb[:0], r)
			if keys[string(kb)] {
				out = append(out, r)
			}
		}
		return out
	case sqlast.SetExcept:
		keys := map[string]bool{}
		var kb []byte
		for _, r := range b {
			keys[rowKey(r)] = true
		}
		var out [][]Value
		for _, r := range a {
			kb = rowKeyAppend(kb[:0], r)
			if !keys[string(kb)] {
				out = append(out, r)
			}
		}
		return out
	}
	return a
}

func dedupeRows(rows [][]Value) [][]Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	var kb []byte
	for _, r := range rows {
		kb = rowKeyAppend(kb[:0], r)
		if seen[string(kb)] {
			continue
		}
		seen[string(kb)] = true
		out = append(out, r)
	}
	return out
}

// projected carries an output row together with the environment/context it
// was produced from, so ORDER BY can evaluate arbitrary expressions.
type projected struct {
	row []Value
	env *rowEnv
	ctx *evalCtx // aggregate context; nil for non-aggregated rows
}

// execCore runs one SELECT arm (no set ops, no order/limit) and returns the
// per-row evaluation context alongside the result, for ORDER BY.
func (ex *Executor) execCore(sel *sqlast.SelectStmt, outer *rowEnv) (*Result, []projected, error) {
	projRows, cols, err := ex.project(sel, outer)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Columns: cols}
	for _, p := range projRows {
		res.Rows = append(res.Rows, p.row)
	}
	return res, projRows, nil
}

// orderSrc tells orderRows where each output row came from, for ORDER BY
// keys that are not output columns, select-item matches or ordinals. The
// zero value resolves no such key.
type orderSrc struct {
	// env returns output row i's evaluation environment and aggregate
	// context.
	env func(i int) (*rowEnv, *evalCtx)
	// col, when set, returns the typed column that holds a bare column
	// key's value for output row i at row src[i], or nil to evaluate it.
	col func(e sqlast.Expr) *colData
	src []int32
}

// sortKey is one ORDER BY key over every output row: evaluated values, or
// a typed column read at each row's source index.
type sortKey struct {
	desc bool
	vals []Value
	col  *colData
	src  []int32
}

// orderRows sorts res.Rows by sel's ORDER BY. Each key is evaluated once
// into a flat array and an int32 permutation is sorted over them, with the
// same stable algorithm (and so the same comparison sequence) as
// sort.SliceStable: rows come out identical even where Compare is not a
// strict weak order (NaN, mixed types).
func (ex *Executor) orderRows(sel *sqlast.SelectStmt, res *Result, src orderSrc) error {
	// Hoist the row-independent work out of the per-row loop: the parsed
	// ordinal, the bare-column form, and the printed expressions compared
	// against printed select items are the same for every row.
	specs := make([]orderSpec, len(sel.OrderBy))
	for k, ob := range sel.OrderBy {
		specs[k] = orderSpec{expr: ob.Expr, want: sqlast.PrintExpr(ob.Expr)}
		if lit, ok := ob.Expr.(*sqlast.Literal); ok && lit.Kind == sqlast.LitNumber {
			if n, err := strconv.Atoi(lit.Text); err == nil {
				specs[k].ord, specs[k].hasOrd = n, true
			}
		}
		if cr, ok := ob.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
			specs[k].cr = cr
		}
	}
	itemPrints := make([]string, len(sel.Items))
	for j, it := range sel.Items {
		if it.Expr != nil {
			itemPrints[j] = sqlast.PrintExpr(it.Expr)
		}
	}
	n := len(res.Rows)
	keys := make([]sortKey, len(specs))
	for k := range keys {
		keys[k].desc = sel.OrderBy[k].Desc
		// A key no output row can resolve is evaluated for every row; a
		// bare column key may be read from its typed column instead.
		if src.col != nil && specs[k].outputIndex(sel, res, itemPrints, math.MaxInt) < 0 {
			if c := src.col(specs[k].expr); c != nil {
				keys[k].col, keys[k].src = c, src.src
				continue
			}
		}
		keys[k].vals = make([]Value, n)
	}
	for i, r := range res.Rows {
		var env *rowEnv
		var ctx *evalCtx
		for k := range keys {
			if keys[k].col != nil {
				continue
			}
			sp := &specs[k]
			if j := sp.outputIndex(sel, res, itemPrints, len(r)); j >= 0 {
				keys[k].vals[i] = r[j]
				continue
			}
			if src.env == nil {
				return fmt.Errorf("cannot resolve ORDER BY expression %s", sp.want)
			}
			if env == nil {
				env, ctx = src.env(i)
			}
			v, err := ex.eval(sp.expr, env, ctx)
			if err != nil {
				return err
			}
			keys[k].vals[i] = v
		}
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		for k := range keys {
			key := &keys[k]
			var c int
			if key.col != nil {
				c = key.col.compareRows(key.src[a], key.src[b])
			} else {
				c = Compare(key.vals[a], key.vals[b])
			}
			if c != 0 {
				if key.desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	rows := slices.Clone(res.Rows)
	for i, p := range perm {
		res.Rows[i] = rows[p]
	}
	return nil
}

// orderSpec carries the row-independent pieces of one ORDER BY key.
type orderSpec struct {
	expr   sqlast.Expr
	ord    int // parsed ordinal literal (ORDER BY 2), valid when hasOrd
	hasOrd bool
	cr     *sqlast.ColumnRef // unqualified column/alias reference, if any
	want   string            // printed expression for select-item matching
}

// outputIndex resolves one ORDER BY key to a column of an output row of
// length rowLen: an ordinal, an output column or alias, or a select item
// printed like the key. -1 means the key is evaluated over the row's source.
func (sp *orderSpec) outputIndex(sel *sqlast.SelectStmt, res *Result, itemPrints []string, rowLen int) int {
	// Ordinal: ORDER BY 2.
	if sp.hasOrd && sp.ord >= 1 && sp.ord <= rowLen {
		return sp.ord - 1
	}
	// Output column / alias match.
	if sp.cr != nil {
		for j, c := range res.Columns {
			if strings.EqualFold(c, sp.cr.Column) {
				return j
			}
		}
	}
	// Expression match against a select item (e.g. ORDER BY COUNT(*)).
	for j, it := range sel.Items {
		if it.Expr != nil && itemPrints[j] == sp.want && j < rowLen {
			return j
		}
	}
	return -1
}

// project evaluates FROM/WHERE/GROUP BY/HAVING and the select list.
func (ex *Executor) project(sel *sqlast.SelectStmt, outer *rowEnv) ([]projected, []string, error) {
	envs, err := ex.fromRows(sel.From, outer)
	if err != nil {
		return nil, nil, err
	}
	if sel.Where != nil {
		kept := envs[:0]
		for _, env := range envs {
			ok, err := ex.evalBool(sel.Where, env, nil)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				kept = append(kept, env)
			}
		}
		envs = kept
	}

	aggregated := len(sel.GroupBy) > 0 || sel.Having != nil
	if !aggregated {
		for _, it := range sel.Items {
			if it.Expr != nil && hasAggregate(it.Expr) {
				aggregated = true
				break
			}
		}
	}
	if !aggregated {
		for _, ob := range sel.OrderBy {
			if hasAggregate(ob.Expr) && len(sel.GroupBy) > 0 {
				aggregated = true
				break
			}
		}
	}

	cols := ex.outputColumns(sel, envs)

	var out []projected
	if aggregated {
		groups, reps, err := ex.groupRows(sel, envs)
		if err != nil {
			return nil, nil, err
		}
		for gi, group := range groups {
			ctx := &evalCtx{group: group}
			rep := reps[gi]
			if sel.Having != nil {
				ok, err := ex.evalBool(sel.Having, rep, ctx)
				if err != nil {
					return nil, nil, err
				}
				if !ok {
					continue
				}
			}
			row, err := ex.projectRow(sel, rep, ctx)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, projected{row: row, env: rep, ctx: ctx})
		}
	} else {
		out = make([]projected, 0, len(envs))
		for _, env := range envs {
			row, err := ex.projectRow(sel, env, nil)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, projected{row: row, env: env})
		}
	}

	if sel.Distinct {
		seen := make(map[string]bool, len(out))
		kept := out[:0]
		var kb []byte
		for _, p := range out {
			kb = rowKeyAppend(kb[:0], p.row)
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
			kept = append(kept, p)
		}
		out = kept
	}
	return out, cols, nil
}

// groupRows partitions envs by the GROUP BY key. With no GROUP BY the whole
// input is a single group (global aggregation). Returns groups plus one
// representative env per group.
func (ex *Executor) groupRows(sel *sqlast.SelectStmt, envs []*rowEnv) ([][]*rowEnv, []*rowEnv, error) {
	if len(sel.GroupBy) == 0 {
		rep := &rowEnv{}
		if len(envs) > 0 {
			rep = envs[0]
		}
		return [][]*rowEnv{envs}, []*rowEnv{rep}, nil
	}
	index := map[string]int{}
	var groups [][]*rowEnv
	var reps []*rowEnv
	var kb []byte
	for _, env := range envs {
		kb = kb[:0]
		for _, g := range sel.GroupBy {
			v, err := ex.eval(g, env, nil)
			if err != nil {
				return nil, nil, err
			}
			kb = v.appendKey(kb)
			kb = append(kb, '\x1f')
		}
		gi, ok := index[string(kb)]
		if !ok {
			gi = len(groups)
			index[string(kb)] = gi
			groups = append(groups, nil)
			reps = append(reps, env)
		}
		groups[gi] = append(groups[gi], env)
	}
	return groups, reps, nil
}

// projectRow evaluates the select list for one row/group.
func (ex *Executor) projectRow(sel *sqlast.SelectStmt, env *rowEnv, ctx *evalCtx) ([]Value, error) {
	row := make([]Value, 0, len(sel.Items))
	for _, it := range sel.Items {
		switch {
		case it.Star:
			for _, b := range env.bindings {
				row = append(row, b.vals...)
			}
		case it.TableStar != "":
			found := false
			for _, b := range env.bindings {
				if b.alias == strings.ToLower(it.TableStar) {
					row = append(row, b.vals...)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("unknown table %q in %s.*", it.TableStar, it.TableStar)
			}
		default:
			v, err := ex.eval(it.Expr, env, ctx)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
	}
	return row, nil
}

// outputColumns derives the result header.
func (ex *Executor) outputColumns(sel *sqlast.SelectStmt, envs []*rowEnv) []string {
	var cols []string
	var sample *rowEnv
	if len(envs) > 0 {
		sample = envs[0]
	}
	for _, it := range sel.Items {
		switch {
		case it.Star:
			if sample != nil {
				for _, b := range sample.bindings {
					cols = append(cols, b.cols...)
				}
			} else if schema := ex.starColumns(sel); schema != nil {
				cols = append(cols, schema...)
			} else {
				cols = append(cols, "*")
			}
		case it.TableStar != "":
			added := false
			if sample != nil {
				for _, b := range sample.bindings {
					if b.alias == strings.ToLower(it.TableStar) {
						cols = append(cols, b.cols...)
						added = true
					}
				}
			}
			if !added {
				if t, ok := ex.db.Table(it.TableStar); ok {
					for _, c := range t.Columns {
						cols = append(cols, c.Name)
					}
				} else {
					cols = append(cols, it.TableStar+".*")
				}
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
	return cols
}

// starColumns derives the SELECT * header from the catalog when the row set
// is empty (so headers stay stable regardless of data).
func (ex *Executor) starColumns(sel *sqlast.SelectStmt) []string {
	if sel.From == nil || sel.From.First.Name == "" {
		return nil
	}
	var cols []string
	add := func(name string) bool {
		t, ok := ex.db.Table(name)
		if !ok {
			return false
		}
		for _, c := range t.Columns {
			cols = append(cols, c.Name)
		}
		return true
	}
	if !add(sel.From.First.Name) {
		return nil
	}
	for _, j := range sel.From.Joins {
		if j.Source.Name == "" || !add(j.Source.Name) {
			return nil
		}
	}
	return cols
}
