package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fisql/internal/sqlparse"
)

// referenceOrder is the ORDER BY sort the permutation sort replaced, kept as
// the oracle: sort.SliceStable over {row, keys} structs compared key by key
// with Compare. Its comparison sequence is the one every leg must
// reproduce, including where Compare is not a strict weak order (NaN
// equals every number; mixed Int/Text/Bool compare through their text).
func referenceOrder(rows, keys [][]Value, desc []bool) [][]Value {
	type sortRow struct {
		row  []Value
		keys []Value
	}
	sr := make([]sortRow, len(rows))
	for i := range rows {
		sr[i] = sortRow{rows[i], keys[i]}
	}
	sort.SliceStable(sr, func(i, j int) bool {
		for k := range desc {
			c := Compare(sr[i].keys[k], sr[j].keys[k])
			if c != 0 {
				if desc[k] {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	out := make([][]Value, len(sr))
	for i := range sr {
		out[i] = sr[i].row
	}
	return out
}

// orderFuzzKinds are the column domains the random tables draw from. The
// first five classify as typed columns (int, float with -0.0, int/float
// mix, text with case-folded ties, all NULL), whose keys the columnar path
// reads from the column arrays; the last two (mixed types, NaN) stay
// evaluated.
var orderFuzzKinds = []func(rng *rand.Rand) Value{
	func(rng *rand.Rand) Value { return Int(int64(rng.Intn(6) - 2)) },
	func(rng *rand.Rand) Value {
		return Float([]float64{-1.5, math.Copysign(0, -1), 0, 0.5, 2, 3}[rng.Intn(6)])
	},
	func(rng *rand.Rand) Value {
		if rng.Intn(2) == 0 {
			return Int(int64(rng.Intn(4)))
		}
		return Float(float64(rng.Intn(8)) / 2)
	},
	func(rng *rand.Rand) Value {
		return Text([]string{"a", "A", "b", "B", "ab", "Ab", "", "10", "9", "é", "É"}[rng.Intn(11)])
	},
	func(rng *rand.Rand) Value { return Null() },
	func(rng *rand.Rand) Value {
		switch rng.Intn(4) {
		case 0:
			return Int(int64(rng.Intn(3)))
		case 1:
			return Float(float64(rng.Intn(4)) / 2)
		case 2:
			return Text([]string{"1", "true", "a", "0.5"}[rng.Intn(4)])
		}
		return Bool(rng.Intn(2) == 0)
	},
	func(rng *rand.Rand) Value {
		if rng.Intn(4) == 0 {
			return Float(math.NaN())
		}
		return Float(float64(rng.Intn(5)))
	},
}

// orderFuzzCase builds a random table t (a unique id plus 2-5 columns of
// random domains, some with NULLs) and a random ORDER BY over it: 1-3 keys,
// each a column that may or may not be selected, or an ordinal, ASC or
// DESC, over an optional WHERE. It returns the statement, its nOut output
// columns, and the same projection with the column keys appended and no
// ORDER BY; ordinals[k] is key k's ordinal, 0 for a column key.
func orderFuzzCase(rng *rand.Rand, rows int) (db *Database, sql, unsorted string, nOut int, ordinals []int, desc []bool) {
	ncols := 2 + rng.Intn(4)
	t := &Table{Name: "t", Columns: []Column{{Name: "id", Type: TypeInt}}}
	kinds := make([]int, ncols)
	nullRate := make([]int, ncols)
	for c := range kinds {
		kinds[c] = rng.Intn(len(orderFuzzKinds))
		nullRate[c] = rng.Intn(3) * 10 // 0, 10 or 20 percent
		t.Columns = append(t.Columns, Column{Name: fmt.Sprintf("c%d", c), Type: TypeText})
	}
	for i := 0; i < rows; i++ {
		row := []Value{Int(int64(i))}
		for c := range kinds {
			v := orderFuzzKinds[kinds[c]](rng)
			if rng.Intn(100) < nullRate[c] {
				v = Null()
			}
			row = append(row, v)
		}
		t.Rows = append(t.Rows, row)
	}
	db = NewDatabase("order")
	db.AddTable(t)

	outs := []string{"id"}
	for _, c := range rng.Perm(ncols)[:rng.Intn(3)] {
		outs = append(outs, fmt.Sprintf("c%d", c))
	}
	var keys, keyExprs []string
	for k := 1 + rng.Intn(3); k > 0; k-- {
		d := rng.Intn(2) == 0
		desc = append(desc, d)
		dir := " ASC"
		if d {
			dir = " DESC"
		}
		if rng.Intn(5) == 0 {
			ord := 1 + rng.Intn(len(outs))
			ordinals = append(ordinals, ord)
			keys = append(keys, fmt.Sprint(ord)+dir)
			continue
		}
		col := fmt.Sprintf("c%d", rng.Intn(ncols))
		ordinals = append(ordinals, 0)
		keys = append(keys, col+dir)
		keyExprs = append(keyExprs, col)
	}
	where := ""
	if rng.Intn(3) == 0 {
		where = fmt.Sprintf(" WHERE id > %d", rng.Intn(rows+1))
	}
	sel := strings.Join(outs, ", ")
	sql = "SELECT " + sel + " FROM t" + where + " ORDER BY " + strings.Join(keys, ", ")
	unsorted = "SELECT " + strings.Join(append([]string{sel}, keyExprs...), ", ") + " FROM t" + where
	return db, sql, unsorted, len(outs), ordinals, desc
}

// FuzzOrderByMatchesReferenceSort pins ORDER BY on the columnar path (no
// table-size floor), the row path and the unplanned interpreter to
// referenceOrder over random tables with ties, NULLs, NaN, -0.0, mixed
// Int/Float/Text/Bool columns and multi-key ASC/DESC orders on output and
// non-output columns.
func FuzzOrderByMatchesReferenceSort(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed*41%256))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint8) {
		rng := rand.New(rand.NewSource(seed))
		db, sql, unsorted, nOut, ordinals, desc := orderFuzzCase(rng, int(rows))

		base, err := NewExecutor(db).Query(unsorted)
		if err != nil {
			t.Fatalf("%s: %v", unsorted, err)
		}
		outRows := make([][]Value, len(base.Rows))
		keys := make([][]Value, len(base.Rows))
		for i, r := range base.Rows {
			outRows[i] = r[:nOut:nOut]
			extra := r[nOut:]
			for _, ord := range ordinals {
				if ord > 0 {
					keys[i] = append(keys[i], r[ord-1])
				} else {
					keys[i] = append(keys[i], extra[0])
					extra = extra[1:]
				}
			}
		}
		want := referenceOrder(outRows, keys, desc)

		p, err := Prepare(db, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		parsed, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		col := NewExecutor(db)
		col.SetColumnarMinRows(0)
		row := NewExecutor(db)
		row.SetColumnar(false)
		for _, leg := range []struct {
			name string
			run  func() (*Result, error)
		}{
			{"columnar", func() (*Result, error) { return col.Run(p) }},
			{"row", func() (*Result, error) { return row.Run(p) }},
			{"unplanned", func() (*Result, error) { return NewExecutor(db).Select(parsed) }},
		} {
			res, err := leg.run()
			if err != nil {
				t.Fatalf("%s leg: %s: %v", leg.name, sql, err)
			}
			if !res.Ordered || len(res.Rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Rows, want)) {
				t.Fatalf("%s leg diverged from the reference sort\nsql: %s\ngot:  %v\nwant: %v", leg.name, sql, res.Rows, want)
			}
		}
		if hits, fallbacks := db.ColumnarStats(); hits != 2 || fallbacks != 0 { // the unsorted query and the columnar leg
			t.Fatalf("columnar leg did not vectorize: %d hits, %d fallbacks\nsql: %s", hits, fallbacks, sql)
		}
	})
}
