package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// Relational invariants checked over randomized data and predicates. These
// pin the executor semantics the evaluation metric depends on.

func randomDB(rng *rand.Rand, rows int) *Database {
	db := NewDatabase("prop")
	t := &Table{
		Name: "items",
		Columns: []Column{
			{Name: "id", Type: TypeInt},
			{Name: "grp", Type: TypeText},
			{Name: "val", Type: TypeInt},
			{Name: "score", Type: TypeFloat},
		},
	}
	groups := []string{"a", "b", "c", "d"}
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, []Value{
			Int(int64(i + 1)),
			Text(groups[rng.Intn(len(groups))]),
			Int(int64(rng.Intn(100))),
			Float(float64(rng.Intn(1000)) / 10),
		})
	}
	db.AddTable(t)
	return db
}

func count(t *testing.T, ex *Executor, sql string) int {
	t.Helper()
	res, err := ex.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return len(res.Rows)
}

func TestPropertyFilterMonotone(t *testing.T) {
	// Adding an AND conjunct never increases the row count.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		db := randomDB(rng, 30+rng.Intn(50))
		ex := NewExecutor(db)
		v1, v2 := rng.Intn(100), rng.Intn(100)
		base := count(t, ex, fmt.Sprintf("SELECT id FROM items WHERE val > %d", v1))
		narrowed := count(t, ex, fmt.Sprintf("SELECT id FROM items WHERE val > %d AND val < %d", v1, v2))
		if narrowed > base {
			t.Fatalf("trial %d: conjunct increased rows %d -> %d", trial, base, narrowed)
		}
		widened := count(t, ex, fmt.Sprintf("SELECT id FROM items WHERE val > %d OR val < %d", v1, v2))
		if widened < base {
			t.Fatalf("trial %d: disjunct decreased rows %d -> %d", trial, base, widened)
		}
	}
}

func TestPropertyDistinctNotLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 20+rng.Intn(80))
		ex := NewExecutor(db)
		all := count(t, ex, "SELECT grp FROM items")
		distinct := count(t, ex, "SELECT DISTINCT grp FROM items")
		if distinct > all {
			t.Fatalf("trial %d: distinct %d > all %d", trial, distinct, all)
		}
		if distinct > 4 {
			t.Fatalf("trial %d: more distinct groups than exist: %d", trial, distinct)
		}
	}
}

func TestPropertyLimitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 10+rng.Intn(40))
		ex := NewExecutor(db)
		n := 1 + rng.Intn(20)
		got := count(t, ex, fmt.Sprintf("SELECT id FROM items ORDER BY id ASC LIMIT %d", n))
		total := count(t, ex, "SELECT id FROM items")
		want := n
		if total < n {
			want = total
		}
		if got != want {
			t.Fatalf("trial %d: LIMIT %d over %d rows returned %d", trial, n, total, got)
		}
	}
}

func TestPropertyGroupCountsSumToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 20+rng.Intn(60))
		ex := NewExecutor(db)
		res, err := ex.Query("SELECT grp, COUNT(*) FROM items GROUP BY grp")
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, row := range res.Rows {
			sum += row[1].I
		}
		total, err := ex.Query("SELECT COUNT(*) FROM items")
		if err != nil {
			t.Fatal(err)
		}
		if sum != total.Rows[0][0].I {
			t.Fatalf("trial %d: group counts sum %d != total %d", trial, sum, total.Rows[0][0].I)
		}
	}
}

func TestPropertyMinMaxWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 10+rng.Intn(40))
		ex := NewExecutor(db)
		res, err := ex.Query("SELECT MIN(val), MAX(val), AVG(val) FROM items")
		if err != nil {
			t.Fatal(err)
		}
		mn, mx, avg := res.Rows[0][0], res.Rows[0][1], res.Rows[0][2]
		if Compare(mn, mx) > 0 {
			t.Fatalf("trial %d: MIN %v > MAX %v", trial, mn, mx)
		}
		if avg.F() < float64(mn.I) || avg.F() > float64(mx.I) {
			t.Fatalf("trial %d: AVG %v outside [%v, %v]", trial, avg, mn, mx)
		}
	}
}

func TestPropertyOrderBySorts(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 10+rng.Intn(60))
		ex := NewExecutor(db)
		res, err := ex.Query("SELECT val FROM items ORDER BY val ASC")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Rows); i++ {
			if Compare(res.Rows[i-1][0], res.Rows[i][0]) > 0 {
				t.Fatalf("trial %d: not sorted at %d", trial, i)
			}
		}
		res, err = ex.Query("SELECT val FROM items ORDER BY val DESC")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Rows); i++ {
			if Compare(res.Rows[i-1][0], res.Rows[i][0]) < 0 {
				t.Fatalf("trial %d: not reverse-sorted at %d", trial, i)
			}
		}
	}
}

func TestPropertySetOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 20+rng.Intn(40))
		ex := NewExecutor(db)
		a := fmt.Sprintf("SELECT grp FROM items WHERE val > %d", rng.Intn(80))
		b := fmt.Sprintf("SELECT grp FROM items WHERE val < %d", rng.Intn(80))
		union := count(t, ex, a+" UNION "+b)
		inter := count(t, ex, a+" INTERSECT "+b)
		exceptN := count(t, ex, a+" EXCEPT "+b)
		distinctA := count(t, ex, "SELECT DISTINCT grp FROM (SELECT * FROM items) AS s WHERE val > 0")
		_ = distinctA
		// |A ∪ B| = |A\B| + |A ∩ B| + |B\A| ≥ max parts; check the two
		// identities that only need A-side quantities:
		if inter+exceptN > union {
			t.Fatalf("trial %d: |A∩B| + |A\\B| = %d exceeds |A∪B| = %d", trial, inter+exceptN, union)
		}
		if exceptN > union {
			t.Fatalf("trial %d: |A\\B| %d > |A∪B| %d", trial, exceptN, union)
		}
	}
}

func TestPropertyJoinCardinality(t *testing.T) {
	// LEFT JOIN preserves every left row at least once; INNER JOIN never
	// exceeds the LEFT JOIN row count.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 15+rng.Intn(25))
		other := &Table{
			Name: "tags",
			Columns: []Column{
				{Name: "item_id", Type: TypeInt},
				{Name: "tag", Type: TypeText},
			},
		}
		items, _ := db.Table("items")
		for i := 0; i < rng.Intn(30); i++ {
			other.Rows = append(other.Rows, []Value{
				Int(int64(rng.Intn(len(items.Rows) * 2))), // some dangle
				Text("t"),
			})
		}
		db.AddTable(other)
		ex := NewExecutor(db)
		left := count(t, ex, "SELECT items.id FROM items LEFT JOIN tags ON items.id = tags.item_id")
		inner := count(t, ex, "SELECT items.id FROM items JOIN tags ON items.id = tags.item_id")
		if left < len(items.Rows) {
			t.Fatalf("trial %d: LEFT JOIN lost rows: %d < %d", trial, left, len(items.Rows))
		}
		if inner > left {
			t.Fatalf("trial %d: INNER %d > LEFT %d", trial, inner, left)
		}
	}
}

// TestPropertyUncorrelatedSubqueryMatchesCorrelated: an uncorrelated IN or
// scalar-MAX subquery (evaluated once per query) selects exactly the rows of
// its correlated EXISTS rewrite (evaluated per outer row), and each form
// agrees with the unplanned interpreter. IN and NOT IN partition the table
// when the candidates hold no NULL.
func TestPropertyUncorrelatedSubqueryMatchesCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	groups := []string{"a", "b", "c", "d"}
	ids := func(res *Result) []int64 {
		out := make([]int64, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r[0].I
		}
		return out
	}
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 20+rng.Intn(60))
		g := groups[rng.Intn(len(groups))]
		pairs := [][2]string{
			{fmt.Sprintf("SELECT id FROM items WHERE val IN (SELECT val FROM items WHERE grp = '%s')", g),
				fmt.Sprintf("SELECT id FROM items WHERE EXISTS (SELECT 1 FROM items AS i2 WHERE i2.grp = '%s' AND i2.val = items.val)", g)},
			{fmt.Sprintf("SELECT id FROM items WHERE score IN (SELECT val FROM items WHERE grp = '%s')", g),
				fmt.Sprintf("SELECT id FROM items WHERE EXISTS (SELECT 1 FROM items AS i2 WHERE i2.grp = '%s' AND i2.val = items.score)", g)},
			{fmt.Sprintf("SELECT id FROM items WHERE val = (SELECT MAX(val) FROM items WHERE grp = '%s')", g),
				fmt.Sprintf("SELECT id FROM items WHERE EXISTS (SELECT 1 FROM items AS i2 WHERE i2.grp = '%s' AND i2.val = items.val) "+
					"AND NOT EXISTS (SELECT 1 FROM items AS i2 WHERE i2.grp = '%s' AND i2.val > items.val)", g, g)},
		}
		for _, pq := range pairs {
			memo, err := runBothWays(t, db, pq[0])
			if err != nil {
				t.Fatal(err)
			}
			perRow, err := runBothWays(t, db, pq[1])
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ids(memo)) != fmt.Sprint(ids(perRow)) {
				t.Fatalf("trial %d: %q selected %v, its correlated rewrite %v", trial, pq[0], ids(memo), ids(perRow))
			}
		}
		in, _ := runBothWays(t, db, fmt.Sprintf("SELECT id FROM items WHERE val IN (SELECT val FROM items WHERE grp = '%s')", g))
		notIn, _ := runBothWays(t, db, fmt.Sprintf("SELECT id FROM items WHERE val NOT IN (SELECT val FROM items WHERE grp = '%s')", g))
		all := count(t, NewExecutor(db), "SELECT id FROM items")
		if len(in.Rows)+len(notIn.Rows) != all {
			t.Fatalf("trial %d: IN %d + NOT IN %d != %d rows", trial, len(in.Rows), len(notIn.Rows), all)
		}
	}
}
