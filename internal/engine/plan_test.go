package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fisql/internal/sqlast"
	"fisql/internal/sqlparse"
)

// runBothWays executes sql through the planned path (Prepare+Run with hash
// joins enabled) and through the seed interpreter (unplanned Select with
// hash joins disabled) and requires identical results and identical error
// text.
func runBothWays(t *testing.T, db *Database, sql string) (*Result, error) {
	t.Helper()
	var refRes *Result
	var refErr error
	if sel, err := sqlparse.ParseSelect(sql); err != nil {
		refErr = err
	} else {
		ref := NewExecutor(db)
		ref.SetHashJoin(false)
		refRes, refErr = ref.Select(sel)
	}
	plan, err := Prepare(db, sql)
	var gotRes *Result
	var gotErr error
	if err != nil {
		gotErr = err
	} else {
		gotRes, gotErr = NewExecutor(db).Run(plan)
	}
	if (refErr == nil) != (gotErr == nil) ||
		(refErr != nil && refErr.Error() != gotErr.Error()) {
		t.Fatalf("query %q: interpreter err %v, planned err %v", sql, refErr, gotErr)
	}
	if !reflect.DeepEqual(refRes, gotRes) {
		t.Fatalf("query %q:\ninterpreter: %+v\nplanned:     %+v", sql, refRes, gotRes)
	}
	return gotRes, gotErr
}

func TestPlanResolvesAndExecutesIdentically(t *testing.T) {
	db := testDB(t)
	queries := []string{
		"SELECT name, age FROM singer WHERE age > 30 ORDER BY age DESC",
		"SELECT s.name FROM singer AS s JOIN singer_in_concert AS sc ON s.id = sc.singer_id",
		"SELECT country, COUNT(*) FROM singer GROUP BY country HAVING COUNT(*) > 1",
		"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert WHERE concert_id = 1)",
		"SELECT t.name FROM (SELECT name, age FROM singer) AS t WHERE t.age < 30",
		"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM singer_in_concert WHERE singer_id = singer.id)",
		"SELECT name FROM singer UNION SELECT concert_name FROM concert",
		"SELECT * FROM singer ORDER BY 2 LIMIT 3",
		"SELECT name AS n FROM singer ORDER BY n",
	}
	for _, q := range queries {
		p, err := Prepare(db, q)
		if err != nil {
			t.Fatalf("prepare %q: %v", q, err)
		}
		if d := p.Diagnostics(); len(d) != 0 {
			t.Errorf("query %q: unexpected diagnostics %v", q, d)
		}
		runBothWays(t, db, q)
	}
}

func TestPlanDiagnostics(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT nope FROM singer", `unknown column "nope"`},
		{"SELECT singer.nope FROM singer", "column singer.nope not found"},
		{"SELECT x.name FROM singer", `unknown table or alias "x"`},
		{"SELECT concert_id FROM concert JOIN singer_in_concert ON concert.concert_id = singer_in_concert.concert_id",
			`ambiguous column "concert_id"`},
		{"SELECT * FROM no_such_table", `unknown table "no_such_table"`},
	}
	for _, c := range cases {
		p, err := Prepare(db, c.sql)
		if err != nil {
			t.Fatalf("prepare %q: %v", c.sql, err)
		}
		found := false
		for _, d := range p.Diagnostics() {
			if strings.Contains(d, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("query %q: diagnostics %v do not mention %q", c.sql, p.Diagnostics(), c.want)
		}
		// Diagnostics are advisory: execution must still behave exactly like
		// the interpreter (erroring where it errors).
		runBothWays(t, db, c.sql)
	}
}

// TestPlanLazyErrorSemantics pins the property that makes planning
// best-effort: the interpreter only raises unknown-column errors when the
// expression is evaluated, so a bad WHERE over an empty table succeeds.
// Planned execution must preserve that while still surfacing the problem as
// a diagnostic.
func TestPlanLazyErrorSemantics(t *testing.T) {
	db := testDB(t)
	if err := db.LoadScript("CREATE TABLE empty_t (a INT);"); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT a FROM empty_t WHERE nope = 1"
	p, err := Prepare(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Diagnostics()) == 0 {
		t.Error("expected a diagnostic for the unknown column")
	}
	res, execErr := runBothWays(t, db, sql)
	if execErr != nil {
		t.Fatalf("unexpected execution error: %v", execErr)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("expected 0 rows, got %d", len(res.Rows))
	}
}

func TestCacheHitReturnsSamePlan(t *testing.T) {
	db := testDB(t)
	c := NewCache(0)
	p1, err := c.Plan(db, "SELECT name FROM singer")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Plan(db, "SELECT name FROM singer")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Plan call did not hit the cache")
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
	// A different database is a different key even for the same SQL.
	db2 := testDB(t)
	p3, err := c.Plan(db2, "SELECT name FROM singer")
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("plans must not be shared across databases")
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
}

func TestCacheNegativeCaching(t *testing.T) {
	db := testDB(t)
	c := NewCache(0)
	_, err1 := c.Plan(db, "SELEC broken")
	if err1 == nil {
		t.Fatal("expected a parse error")
	}
	_, err2 := c.Plan(db, "SELEC broken")
	if err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("cached error mismatch: %v vs %v", err1, err2)
	}
	if c.Len() != 1 {
		t.Errorf("parse errors should be cached; Len=%d", c.Len())
	}
}

func TestCacheEviction(t *testing.T) {
	db := testDB(t)
	c := NewCache(3)
	for i := 0; i < 5; i++ {
		if _, err := c.Plan(db, fmt.Sprintf("SELECT name FROM singer LIMIT %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want capacity 3", c.Len())
	}
	// LIMIT 4 was inserted last and must still be resident; a hit keeps the
	// plan pointer stable.
	p1, _ := c.Plan(db, "SELECT name FROM singer LIMIT 4")
	p2, _ := c.Plan(db, "SELECT name FROM singer LIMIT 4")
	if p1 != p2 {
		t.Error("most-recent entry was evicted")
	}
}

func TestCacheQueryConcurrent(t *testing.T) {
	db := testDB(t)
	c := NewCache(0)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				res, err := c.Query(db, "SELECT COUNT(*) FROM singer WHERE age > 30")
				if err == nil && res.Rows[0][0].I != 4 {
					err = fmt.Errorf("got %v", res.Rows[0][0])
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanOpaqueDerivedTable: a derived table whose header depends on the
// data (SELECT t.* through an alias) must stay on the dynamic lookup path
// rather than getting wrong static slots.
func TestPlanOpaqueDerivedTable(t *testing.T) {
	db := testDB(t)
	queries := []string{
		"SELECT name FROM (SELECT s.* FROM singer AS s) AS d WHERE age > 30",
		"SELECT d.name FROM (SELECT * FROM singer JOIN concert ON singer.id = concert.stadium_id) AS d",
	}
	for _, q := range queries {
		runBothWays(t, db, q)
	}
}

func TestRunRejectsForeignPlan(t *testing.T) {
	db1, db2 := testDB(t), testDB(t)
	p, err := Prepare(db1, "SELECT name FROM singer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewExecutor(db2).Run(p); err == nil {
		t.Error("Run accepted a plan prepared against a different database")
	}
	if _, err := NewExecutor(db1).Run(nil); err == nil {
		t.Error("Run accepted a nil plan")
	}
}

// TestPlanCorrelatedDepth exercises slot resolution across scope depths: the
// inner query references both its own binding and the outer row.
func TestPlanCorrelatedDepth(t *testing.T) {
	db := testDB(t)
	runBothWays(t, db,
		"SELECT name FROM singer WHERE age > (SELECT AVG(age) FROM singer AS s2 WHERE s2.country = singer.country)")
}

// TestPlanMarksUncorrelatedSubqueries pins which subquery statements the
// planner marks uncorrelated. want lists the subquery expressions (scalar,
// EXISTS, IN) in sqlast.WalkSelect order, outer before inner.
func TestPlanMarksUncorrelatedSubqueries(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		name string
		sql  string
		want []bool
	}{
		{"scalar max", "SELECT name FROM singer WHERE age = (SELECT MAX(age) FROM singer)", []bool{true}},
		{"select item", "SELECT name, (SELECT COUNT(*) FROM concert) FROM singer", []bool{true}},
		{"not in", "SELECT name FROM singer WHERE id NOT IN (SELECT singer_id FROM singer_in_concert)", []bool{true}},
		{"outer ref in where",
			"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM singer_in_concert WHERE singer_id = singer.id)",
			[]bool{false}},
		{"outer ref in limit",
			"SELECT name FROM singer AS s WHERE id IN (SELECT singer_id FROM singer_in_concert LIMIT s.age)",
			[]bool{false}},
		{"outer ref two levels down",
			"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM concert WHERE concert_id IN " +
				"(SELECT concert_id FROM singer_in_concert WHERE singer_id = singer.id))",
			[]bool{false, false}},
		{"ref to parent subquery only",
			"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert AS sc WHERE EXISTS " +
				"(SELECT 1 FROM concert AS c WHERE c.concert_id = sc.concert_id))",
			[]bool{true, false}},
		{"outer ref in derived table",
			"SELECT name FROM singer WHERE 0 < (SELECT COUNT(*) FROM (SELECT * FROM concert WHERE stadium_id = singer.id) AS d)",
			[]bool{false}},
		{"unresolved column", "SELECT name FROM singer WHERE age = (SELECT MAX(nope) FROM concert)", []bool{false}},
		{"opaque derived binding",
			"SELECT name FROM singer WHERE id IN (SELECT id FROM (SELECT s.* FROM singer AS s) AS d)",
			[]bool{false}},
		{"lenient order by unresolved",
			"SELECT name FROM singer WHERE id = (SELECT singer_id FROM singer_in_concert ORDER BY cnt LIMIT 1)",
			[]bool{false}},
		{"order by resolved",
			"SELECT name FROM singer WHERE id = (SELECT singer_id FROM singer_in_concert ORDER BY concert_id LIMIT 1)",
			[]bool{true}},
		{"compound", "SELECT name FROM singer WHERE name IN (SELECT name FROM singer UNION SELECT concert_name FROM concert)",
			[]bool{true}},
		{"compound plus order by",
			"SELECT name FROM singer WHERE name IN (SELECT name FROM singer UNION SELECT concert_name FROM concert ORDER BY name)",
			[]bool{false}},
		{"uncorrelated inside correlated",
			"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM singer_in_concert AS sc WHERE sc.singer_id = singer.id " +
				"AND sc.concert_id = (SELECT MAX(concert_id) FROM concert))",
			[]bool{false, true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Prepare(db, c.sql)
			if err != nil {
				t.Fatal(err)
			}
			var got []bool
			sqlast.WalkSelect(p.Stmt, func(e sqlast.Expr) bool {
				switch x := e.(type) {
				case *sqlast.SubqueryExpr:
					got = append(got, p.uncorrelated[x.Sub])
				case *sqlast.ExistsExpr:
					got = append(got, p.uncorrelated[x.Sub])
				case *sqlast.InExpr:
					if x.Sub != nil {
						got = append(got, p.uncorrelated[x.Sub])
					}
				}
				return true
			})
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("uncorrelated = %v, want %v", got, c.want)
			}
			runBothWays(t, db, c.sql)
		})
	}
}
