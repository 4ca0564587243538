// Execution differential fuzzing: the planned+cached execution path must
// never panic and must agree byte-for-byte with the dynamic-lookup
// interpreter (hash joins off) on every input — gold SQL, trap variants,
// demonstration pool, and whatever mutations the fuzzer derives from them.
//
// This lives in an external test package because the seed corpus comes from
// internal/dataset, which itself imports internal/engine.
package engine_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/dataset/spider"
	"fisql/internal/engine"
	"fisql/internal/sqlparse"
)

// fuzzWorld lazily builds both corpora's databases once per process; fuzz
// workers share the read-only catalogs and one plan cache, exactly like
// concurrent server sessions do.
var fuzzWorld struct {
	once  sync.Once
	dbs   map[string]*engine.Database
	seeds [][2]string // (db, sql) seed corpus
	cache *engine.Cache
	err   error
}

func fuzzSetup() error {
	fuzzWorld.once.Do(func() {
		fuzzWorld.dbs = make(map[string]*engine.Database)
		fuzzWorld.cache = engine.NewCache(0)
		for _, build := range []func() (*dataset.Dataset, error){spider.Build, aep.Build} {
			ds, err := build()
			if err != nil {
				fuzzWorld.err = err
				return
			}
			for name, db := range ds.DBs {
				fuzzWorld.dbs[name] = db
			}
			for _, e := range ds.Examples {
				fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{e.DB, e.Gold})
				if w := e.WrongSQL(); w != e.Gold {
					fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{e.DB, w})
				}
				for _, v := range e.Variants {
					fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{e.DB, v})
				}
			}
			for _, d := range ds.Demos {
				fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{d.DB, d.SQL})
			}
		}
		if fuzzWorld.err != nil {
			return
		}
		fuzzWorld.dbs["subq"] = subqueryDB()
		for _, q := range append(subquerySeeds, orderSeeds...) {
			fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{"subq", q})
		}
		// A row-scaled corpus variant, so the differential also runs where
		// the columnar kernels process real batch sizes. Seeded with the
		// scan/filter/aggregate shapes the vectorized path specializes.
		scaled, err := aep.BuildRows(10)
		if err != nil {
			fuzzWorld.err = err
			return
		}
		for name, db := range scaled.DBs {
			sn := "scaled10:" + name
			fuzzWorld.dbs[sn] = db
			for _, t := range db.Tables() {
				c0 := t.Columns[0].Name
				cn := t.Columns[len(t.Columns)-1].Name
				fuzzWorld.seeds = append(fuzzWorld.seeds,
					[2]string{sn, fmt.Sprintf("SELECT COUNT(*) FROM %s", t.Name)},
					[2]string{sn, fmt.Sprintf("SELECT * FROM %s WHERE %s IS NOT NULL ORDER BY %s LIMIT 7", t.Name, c0, cn)},
					[2]string{sn, fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s HAVING COUNT(*) > 2", cn, t.Name, cn)},
					[2]string{sn, fmt.Sprintf("SELECT MIN(%s), MAX(%s), COUNT(%s) FROM %s WHERE %s IS NOT NULL", c0, cn, cn, t.Name, c0)},
				)
			}
			for _, e := range scaled.Examples {
				if e.DB == name {
					fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{sn, e.Gold})
				}
			}
		}
		// The uncorrelated subquery shapes that dominate execution at scale.
		fuzzWorld.seeds = append(fuzzWorld.seeds,
			[2]string{"scaled10:experience_platform", "SELECT segment_name FROM hkg_dim_segment WHERE segment_id NOT IN (SELECT segment_id FROM hkg_fact_activation)"},
			[2]string{"scaled10:experience_platform", "SELECT COUNT(*) FROM hkg_fact_activation WHERE segment_id IN (SELECT segment_id FROM hkg_dim_segment WHERE profile_count > 1000)"},
			[2]string{"scaled10:experience_platform", "SELECT segment_name FROM hkg_dim_segment WHERE profile_count = (SELECT MIN(profile_count) FROM hkg_dim_segment) OR EXISTS (SELECT 1 FROM hkg_dim_destination WHERE monthly_quota < 0)"},
		)
	})
	return fuzzWorld.err
}

// subqueryDB is a small database for subquery shapes the corpora lack:
// NULL candidates, candidate columns mixing Int, Float, Text and Bool
// (Compare equality is not transitive across them), a Text probe of a
// numeric column, NaN, and an empty table.
func subqueryDB() *engine.Database {
	db := engine.NewDatabase("subq")
	i, f, s, b, null := engine.Int, engine.Float, engine.Text, engine.Bool, engine.Null()
	db.AddTable(&engine.Table{
		Name: "items",
		Columns: []engine.Column{{Name: "id", Type: engine.TypeInt}, {Name: "grp", Type: engine.TypeText},
			{Name: "val", Type: engine.TypeInt}, {Name: "score", Type: engine.TypeFloat},
			{Name: "label", Type: engine.TypeText}, {Name: "flag", Type: engine.TypeBool}},
		Rows: [][]engine.Value{
			{i(1), s("a"), i(5), f(5), s("5"), b(true)},
			{i(2), s("a"), i(1), f(0), s("true"), b(false)},
			{i(3), s("b"), i(7), f(2.5), s("x"), b(true)},
			{i(4), s("b"), null, f(-1), s("X"), null},
			{i(5), s("c"), i(0), null, null, b(false)},
			{i(6), s("c"), i(7), f(7), s("7"), b(true)},
		},
	})
	db.AddTable(&engine.Table{
		Name: "cands",
		Columns: []engine.Column{{Name: "k", Type: engine.TypeText}, {Name: "mixed", Type: engine.TypeText},
			{Name: "num", Type: engine.TypeInt}, {Name: "txt", Type: engine.TypeText}},
		Rows: [][]engine.Value{
			{s("a"), s("5"), i(5), s("x")},
			{s("a"), b(true), f(2.5), s("7")},
			{s("b"), null, null, null},
			{s("b"), i(0), f(math.Copysign(0, -1)), s("true")},
			{s("c"), f(2.5), i(7), s("5")},
		},
	})
	// Compare treats NaN as equal to every number, which no hash key can.
	db.AddTable(&engine.Table{
		Name:    "nans",
		Columns: []engine.Column{{Name: "x", Type: engine.TypeFloat}},
		Rows:    [][]engine.Value{{f(math.NaN())}, {f(2.5)}},
	})
	db.AddTable(&engine.Table{Name: "empty_t", Columns: []engine.Column{{Name: "a", Type: engine.TypeInt}}})
	return db
}

// subquerySeeds cover every subquery shape the executor memoizes, and the
// correlated ones it must keep evaluating per row, on subqueryDB.
var subquerySeeds = []string{
	// Scalar MIN/MAX, an empty subquery (NULL) and a multi-row one (error).
	"SELECT id FROM items WHERE val = (SELECT MAX(val) FROM items)",
	"SELECT id FROM items WHERE score > (SELECT MIN(score) FROM items) ORDER BY id",
	"SELECT id, (SELECT MAX(num) FROM cands) FROM items",
	"SELECT id FROM items WHERE val = (SELECT val FROM items WHERE id < 0)",
	"SELECT id, (SELECT val FROM items WHERE id < 0) FROM items",
	"SELECT id FROM items WHERE val = (SELECT val FROM items)",
	"SELECT id FROM items WHERE val = (SELECT id, val FROM items WHERE id = 1)",
	"SELECT grp, COUNT(*) FROM items GROUP BY grp HAVING COUNT(*) >= (SELECT MIN(val) FROM items WHERE val > 0)",
	// EXISTS and NOT EXISTS.
	"SELECT id FROM items WHERE EXISTS (SELECT 1 FROM cands WHERE num IS NULL)",
	"SELECT id FROM items WHERE NOT EXISTS (SELECT 1 FROM cands WHERE num > 100)",
	"SELECT id FROM items WHERE NOT EXISTS (SELECT 1 FROM cands) OR val > 5",
	// [NOT] IN with NULL candidates.
	"SELECT id FROM items WHERE val IN (SELECT num FROM cands)",
	"SELECT id FROM items WHERE val NOT IN (SELECT num FROM cands)",
	"SELECT id FROM items WHERE val NOT IN (SELECT num FROM cands WHERE num IS NOT NULL)",
	"SELECT id, val IN (SELECT num FROM cands), val NOT IN (SELECT num FROM cands WHERE k = 'b') FROM items",
	"SELECT id FROM items WHERE id IN (SELECT num FROM cands WHERE k = 'z')",
	// Mixed-type candidates: Text '5' against Int 5, Bool, Float, -0.0.
	"SELECT id FROM items WHERE val IN (SELECT mixed FROM cands)",
	"SELECT id FROM items WHERE label IN (SELECT mixed FROM cands)",
	"SELECT id FROM items WHERE flag IN (SELECT mixed FROM cands)",
	"SELECT id FROM items WHERE score IN (SELECT num FROM cands)",
	"SELECT id FROM items WHERE label IN (SELECT num FROM cands)",
	"SELECT id FROM items WHERE flag IN (SELECT num FROM cands)",
	"SELECT id FROM items WHERE val IN (SELECT txt FROM cands)",
	"SELECT id FROM items WHERE label NOT IN (SELECT txt FROM cands WHERE txt IS NOT NULL)",
	"SELECT id FROM items WHERE flag NOT IN (SELECT txt FROM cands WHERE txt IS NOT NULL)",
	"SELECT id FROM items WHERE val IN (SELECT num FROM cands UNION ALL SELECT txt FROM cands)",
	"SELECT id FROM items WHERE val IN (SELECT k, num FROM cands)",
	"SELECT id FROM items WHERE val IN (SELECT x FROM nans)",
	"SELECT x FROM nans WHERE x IN (SELECT num FROM cands WHERE k = 'c')",
	// Correlated: per outer row, also beside an uncorrelated one.
	"SELECT id FROM items WHERE val IN (SELECT num FROM cands WHERE cands.k = items.grp)",
	"SELECT id FROM items WHERE EXISTS (SELECT 1 FROM cands WHERE k = grp AND num > (SELECT MIN(val) FROM items))",
	"SELECT id, (SELECT MAX(num) FROM cands WHERE k = items.grp) FROM items",
	"SELECT id FROM items WHERE id IN (SELECT num FROM cands LIMIT items.id)",
	// A subquery that refers to its grand-outer scope.
	"SELECT id FROM items WHERE EXISTS (SELECT 1 FROM cands WHERE EXISTS (SELECT 1 FROM cands AS c2 WHERE c2.num = items.val))",
	"SELECT id FROM items AS o WHERE 0 < (SELECT COUNT(*) FROM cands WHERE num IN (SELECT val FROM items WHERE id = o.id))",
	// Erroring uncorrelated subqueries: never run over an empty outer
	// table, and raised with unchanged text over a non-empty one.
	"SELECT a FROM empty_t WHERE a = (SELECT num FROM cands)",
	"SELECT a FROM empty_t WHERE a IN (SELECT k, num FROM cands)",
	"SELECT a FROM empty_t WHERE EXISTS (SELECT nope FROM cands)",
	"SELECT id FROM items WHERE EXISTS (SELECT nope FROM cands)",
	"SELECT id FROM items WHERE val IS NULL AND val = (SELECT num FROM cands)",
	"SELECT id FROM items WHERE id > 100 AND val = (SELECT num FROM cands)",
}

// orderSeeds sort and group subqueryDB's NULL, NaN, -0.0 and mixed-type
// columns by output and non-output keys, ordinals and aggregates.
var orderSeeds = []string{
	"SELECT id FROM items ORDER BY score DESC",
	"SELECT id, label FROM items ORDER BY flag, val DESC",
	"SELECT id FROM items ORDER BY label, id DESC",
	"SELECT grp FROM items ORDER BY val DESC, score",
	"SELECT k FROM cands ORDER BY mixed DESC, num",
	"SELECT k, txt FROM cands ORDER BY num, 2 DESC",
	"SELECT x FROM nans ORDER BY x DESC",
	"SELECT a FROM empty_t ORDER BY a",
	"SELECT DISTINCT grp FROM items ORDER BY grp DESC",
	"SELECT grp, COUNT(*) FROM items GROUP BY grp HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC, grp",
	"SELECT k, COUNT(*) FROM cands GROUP BY k HAVING COUNT(*) >= 1 ORDER BY COUNT(*), MAX(num) DESC",
	"SELECT label, COUNT(*) FROM items GROUP BY label HAVING MIN(val) IS NOT NULL ORDER BY COUNT(*) DESC, label",
	"SELECT flag, COUNT(*), SUM(val) FROM items WHERE id > 1 GROUP BY flag HAVING COUNT(*) > 0 ORDER BY COUNT(*) DESC, SUM(val)",
	"SELECT mixed, COUNT(*) FROM cands GROUP BY mixed HAVING COUNT(*) > 0 ORDER BY COUNT(*) DESC, mixed",
	// A compound ORDER BY resolves output columns and ordinals only.
	"SELECT id FROM items WHERE val IS NOT NULL UNION SELECT num FROM cands ORDER BY 1 DESC",
	"SELECT id FROM items UNION SELECT num FROM cands ORDER BY val",
}

// runRowLeg executes a cached plan on a columnar-disabled executor — the
// pure row-at-a-time reference the vectorized path must be indistinguishable
// from. ok=false means the statement didn't plan (nothing to compare).
func runRowLeg(db *engine.Database, sql string) (*engine.Result, error, bool) {
	p, err := fuzzWorld.cache.Plan(db, sql)
	if err != nil {
		return nil, nil, false
	}
	ex := engine.NewExecutor(db)
	ex.SetColumnar(false)
	res, err := ex.Run(p)
	return res, err, true
}

// runVecLeg executes a cached plan with the tiny-table aggregation floor
// removed: production executors route sub-DefaultColumnarMinRows aggregates
// to the row path, so without this leg the vectorized aggregate kernels
// would never face the native-scale (tiny) corpus tables.
func runVecLeg(db *engine.Database, sql string) (*engine.Result, error, bool) {
	p, err := fuzzWorld.cache.Plan(db, sql)
	if err != nil {
		return nil, nil, false
	}
	ex := engine.NewExecutor(db)
	ex.SetColumnarMinRows(0)
	res, err := ex.Run(p)
	return res, err, true
}

// runUnplannedLeg executes sql through the unplanned interpreter (Select):
// every column reference resolves by name per row and every subquery runs
// per outer row, so it is the oracle for the planner's slot resolution and
// for the per-Run memo of uncorrelated subqueries. ok=false means sql does
// not parse.
func runUnplannedLeg(db *engine.Database, sql string) (*engine.Result, error, bool) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, nil, false
	}
	ex := engine.NewExecutor(db)
	ex.SetHashJoin(false)
	res, err := ex.Select(sel)
	return res, err, true
}

// FuzzExecPlannedVsDynamic differentially executes every (db, sql) input on
// the planned/cached/hash-join path and the dynamic-lookup interpreter.
// The two must agree on error-ness, error text, and the full result.
func FuzzExecPlannedVsDynamic(f *testing.F) {
	if err := fuzzSetup(); err != nil {
		f.Fatal(err)
	}
	for _, s := range fuzzWorld.seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, dbName, sql string) {
		// Unbounded inputs only slow the fuzzer down: parser depth, not
		// input length, is what shakes out executor bugs.
		if len(sql) > 512 {
			t.Skip()
		}
		db, ok := fuzzWorld.dbs[dbName]
		if !ok {
			t.Skip()
		}
		// Planned path, twice: the second run exercises the cache-hit
		// plan-reuse path (shared immutable plan, fresh executor).
		planned1, err1 := fuzzWorld.cache.Query(db, sql)
		planned2, err2 := fuzzWorld.cache.Query(db, sql)
		// Reference path: parse-per-call dynamic lookup, no hash joins.
		ex := engine.NewExecutor(db)
		ex.SetHashJoin(false)
		dynamic, errD := ex.Query(sql)

		if (err1 == nil) != (errD == nil) {
			t.Fatalf("planned err=%v dynamic err=%v\nsql: %q", err1, errD, sql)
		}
		if err1 != nil {
			if err1.Error() != errD.Error() {
				t.Fatalf("error text diverged:\nplanned: %s\ndynamic: %s\nsql: %q", err1, errD, sql)
			}
			if err2 == nil || err2.Error() != err1.Error() {
				t.Fatalf("cached re-run changed the error: %v vs %v\nsql: %q", err2, err1, sql)
			}
			if _, errR, planned := runRowLeg(db, sql); planned && (errR == nil || errR.Error() != err1.Error()) {
				t.Fatalf("columnar-off leg changed the error: %v vs %v\nsql: %q", errR, err1, sql)
			}
			if _, errV, planned := runVecLeg(db, sql); planned && (errV == nil || errV.Error() != err1.Error()) {
				t.Fatalf("unfloored columnar leg changed the error: %v vs %v\nsql: %q", errV, err1, sql)
			}
			if _, errU, parsed := runUnplannedLeg(db, sql); parsed && (errU == nil || errU.Error() != err1.Error()) {
				t.Fatalf("unplanned leg changed the error: %v vs %v\nsql: %q", errU, err1, sql)
			}
			return
		}
		if err2 != nil {
			t.Fatalf("first run succeeded, cached re-run failed: %v\nsql: %q", err2, sql)
		}
		if !reflect.DeepEqual(planned1, dynamic) {
			t.Fatalf("results diverged\nplanned: %+v\ndynamic: %+v\nsql: %q", planned1, dynamic, sql)
		}
		if !reflect.DeepEqual(planned1, planned2) {
			t.Fatalf("cached re-run diverged from first run\nsql: %q", sql)
		}
		// Third leg: the same shared plan with the columnar path disabled.
		// The planned legs above ran with it enabled, so any divergence
		// here is the vectorized executor's fault specifically.
		row, errR, planned := runRowLeg(db, sql)
		if planned && !reflect.DeepEqual(row, planned1) {
			t.Fatalf("columnar-off leg diverged (err=%v)\ncolumnar: %+v\nrow:      %+v\nsql: %q", errR, planned1, row, sql)
		}
		// Fourth leg: the floor removed, so the vectorized aggregate kernels
		// run even on tables the production threshold routes to the row path.
		vec, errV, planned := runVecLeg(db, sql)
		if planned && !reflect.DeepEqual(vec, planned1) {
			t.Fatalf("unfloored columnar leg diverged (err=%v)\nvec: %+v\nref: %+v\nsql: %q", errV, vec, planned1, sql)
		}
		// Fifth leg: the unplanned interpreter, per-row subqueries included.
		unplanned, errU, parsed := runUnplannedLeg(db, sql)
		if parsed && !reflect.DeepEqual(unplanned, planned1) {
			t.Fatalf("unplanned leg diverged (err=%v)\nunplanned: %+v\nplanned:   %+v\nsql: %q", errU, unplanned, planned1, sql)
		}
	})
}

// TestFuzzSeedCorpus runs the whole seed corpus through the differential
// check directly, so plain `go test` (no -fuzz) still covers every gold
// query, trap variant and demo on both paths.
func TestFuzzSeedCorpus(t *testing.T) {
	if err := fuzzSetup(); err != nil {
		t.Fatal(err)
	}
	if len(fuzzWorld.seeds) == 0 {
		t.Fatal("empty seed corpus")
	}
	for _, s := range fuzzWorld.seeds {
		db := fuzzWorld.dbs[s[0]]
		planned, errP := fuzzWorld.cache.Query(db, s[1])
		ex := engine.NewExecutor(db)
		ex.SetHashJoin(false)
		dynamic, errD := ex.Query(s[1])
		row, errR, hasPlan := runRowLeg(db, s[1])
		vec, errV, hasVec := runVecLeg(db, s[1])
		unplanned, errU, parsed := runUnplannedLeg(db, s[1])
		switch {
		case (errP == nil) != (errD == nil):
			t.Errorf("%s: planned err=%v dynamic err=%v\nsql: %q", s[0], errP, errD, s[1])
		case errP != nil:
			if errP.Error() != errD.Error() {
				t.Errorf("%s: error text diverged: %q vs %q", s[0], errP, errD)
			}
			if hasPlan && (errR == nil || errR.Error() != errP.Error()) {
				t.Errorf("%s: columnar-off error diverged: %v vs %v\nsql: %q", s[0], errR, errP, s[1])
			}
			if hasVec && (errV == nil || errV.Error() != errP.Error()) {
				t.Errorf("%s: unfloored columnar error diverged: %v vs %v\nsql: %q", s[0], errV, errP, s[1])
			}
			if parsed && (errU == nil || errU.Error() != errP.Error()) {
				t.Errorf("%s: unplanned error diverged: %v vs %v\nsql: %q", s[0], errU, errP, s[1])
			}
		case !reflect.DeepEqual(planned, dynamic):
			t.Errorf("%s: results diverged for %q", s[0], strings.TrimSpace(s[1]))
		case hasPlan && !reflect.DeepEqual(row, planned):
			t.Errorf("%s: columnar-off leg diverged (err=%v) for %q", s[0], errR, strings.TrimSpace(s[1]))
		case hasVec && !reflect.DeepEqual(vec, planned):
			t.Errorf("%s: unfloored columnar leg diverged (err=%v) for %q", s[0], errV, strings.TrimSpace(s[1]))
		case parsed && !reflect.DeepEqual(unplanned, planned):
			t.Errorf("%s: unplanned leg diverged (err=%v) for %q", s[0], errU, strings.TrimSpace(s[1]))
		}
	}
}
