package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"fisql/internal/sqlast"
	"fisql/internal/sqlparse"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type Type
}

// Table is an in-memory relation. Rows are slices parallel to Columns.
type Table struct {
	Name    string
	Columns []Column
	Rows    [][]Value
}

// ColumnIndex returns the index of the named column (case-insensitive), or
// -1 if absent.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Database is a named collection of tables. Loading (AddTable, ExecDDL,
// LoadScript) must happen-before any concurrent use; once loaded, a
// Database is read-only and safe for any number of concurrent Executors.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string

	// scanMu guards scanCache, the lazily built shared row environments
	// for base-table scans (see scanEnvs).
	scanMu    sync.Mutex
	scanCache map[scanKey][]*rowEnv

	// colMu guards colCache, the lazily built columnar projections of each
	// table (see columnar.go). Same staleness contract as scanCache: rows
	// can only be appended, so a length mismatch triggers a rebuild.
	colMu    sync.Mutex
	colCache map[*Table]*colTable

	// colHits/colFallbacks tally how many Run calls the vectorized columnar
	// path served versus routed to the row executor. Kept per database (not
	// package-global) so wiring code can register each corpus once without
	// double-counting when several systems share one metrics registry.
	colHits      atomic.Int64
	colFallbacks atomic.Int64
}

// ColumnarStats reports how many planned executions the vectorized columnar
// path served (hits) versus handed to the row-at-a-time executor
// (fallbacks). Counting happens in Executor.Run; the dynamic Select path and
// executors with SetColumnar(false) are not counted.
func (db *Database) ColumnarStats() (hits, fallbacks int64) {
	return db.colHits.Load(), db.colFallbacks.Load()
}

type scanKey struct {
	t     *Table
	alias string
}

// scanEnvs returns shared, read-only row environments for scanning t under
// the given lower-cased alias with no outer scope. They are built once per
// (table, alias) and reused by every query and executor: callers copy the
// returned pointer slice before compacting it and never mutate the
// environments themselves. The supported DDL surface can only append rows,
// so a length mismatch is the complete staleness signal and triggers a
// rebuild.
func (db *Database) scanEnvs(t *Table, alias string) []*rowEnv {
	key := scanKey{t: t, alias: alias}
	db.scanMu.Lock()
	defer db.scanMu.Unlock()
	if envs, ok := db.scanCache[key]; ok && len(envs) == len(t.Rows) {
		return envs
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	envs := make([]*rowEnv, len(t.Rows))
	envStore := make([]rowEnv, len(t.Rows))
	bindStore := make([]binding, len(t.Rows))
	for i, r := range t.Rows {
		bindStore[i] = binding{alias: alias, cols: cols, vals: r}
		envStore[i] = rowEnv{bindings: bindStore[i : i+1 : i+1]}
		envs[i] = &envStore[i]
	}
	if db.scanCache == nil {
		db.scanCache = map[scanKey][]*rowEnv{}
	}
	db.scanCache[key] = envs
	return envs
}

// NewDatabase returns an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// AddTable registers a table; it replaces any existing table with the same
// (case-insensitive) name.
func (db *Database) AddTable(t *Table) {
	key := strings.ToLower(t.Name)
	if _, exists := db.tables[key]; !exists {
		db.order = append(db.order, key)
	}
	db.tables[key] = t
}

// Table looks up a table by case-insensitive name.
func (db *Database) Table(name string) (*Table, bool) {
	if db == nil {
		return nil, false
	}
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all tables in registration order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, k := range db.order {
		out = append(out, db.tables[k])
	}
	return out
}

// ExecDDL applies a CREATE TABLE or INSERT statement to the database.
func (db *Database) ExecDDL(stmt sqlast.Statement) error {
	switch s := stmt.(type) {
	case *sqlast.CreateTableStmt:
		t := &Table{Name: s.Name}
		for _, c := range s.Columns {
			t.Columns = append(t.Columns, Column{Name: c.Name, Type: TypeFromSQL(c.Type)})
		}
		db.AddTable(t)
		return nil
	case *sqlast.InsertStmt:
		t, ok := db.Table(s.Table)
		if !ok {
			return fmt.Errorf("insert into unknown table %q", s.Table)
		}
		colIdx := make([]int, 0, len(t.Columns))
		if len(s.Columns) == 0 {
			for i := range t.Columns {
				colIdx = append(colIdx, i)
			}
		} else {
			for _, name := range s.Columns {
				i := t.ColumnIndex(name)
				if i < 0 {
					return fmt.Errorf("insert into %s: unknown column %q", s.Table, name)
				}
				colIdx = append(colIdx, i)
			}
		}
		for _, exprRow := range s.Rows {
			if len(exprRow) != len(colIdx) {
				return fmt.Errorf("insert into %s: %d values for %d columns", s.Table, len(exprRow), len(colIdx))
			}
			row := make([]Value, len(t.Columns))
			for i := range row {
				row[i] = Null()
			}
			for i, e := range exprRow {
				v, err := literalValue(e, t.Columns[colIdx[i]].Type)
				if err != nil {
					return fmt.Errorf("insert into %s: %w", s.Table, err)
				}
				row[colIdx[i]] = v
			}
			t.Rows = append(t.Rows, row)
		}
		return nil
	default:
		return fmt.Errorf("unsupported DDL statement %T", stmt)
	}
}

// literalValue evaluates the constant expressions INSERT supports.
func literalValue(e sqlast.Expr, t Type) (Value, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		switch x.Kind {
		case sqlast.LitNull:
			return Null(), nil
		case sqlast.LitBool:
			return Bool(x.Text == "TRUE"), nil
		case sqlast.LitString:
			// Parse against the column type, so 'x' into an INT column is
			// rejected rather than silently stored as text.
			return ParseLiteral(x.Text, t)
		case sqlast.LitNumber:
			if t == TypeInt || t == TypeFloat {
				return ParseLiteral(x.Text, t)
			}
			// Numeric literal into a TEXT column keeps its text.
			return Text(x.Text), nil
		}
	case *sqlast.Unary:
		if x.Op == sqlast.OpNeg {
			v, err := literalValue(x.X, t)
			if err != nil {
				return Value{}, err
			}
			switch v.T {
			case TypeInt:
				return Int(-v.I), nil
			case TypeFloat:
				return Float(-v.F()), nil
			}
		}
	}
	return Value{}, fmt.Errorf("unsupported literal expression %T", e)
}

// LoadScript parses and applies a semicolon-separated DDL/DML script.
func (db *Database) LoadScript(src string) error {
	stmts, err := sqlparse.ParseScript(src)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if err := db.ExecDDL(s); err != nil {
			return err
		}
	}
	return nil
}
