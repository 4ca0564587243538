package engine

import "math"

// This file implements the columnar half of the engine's storage: a typed,
// column-major projection of a Table, built lazily once per table and cached
// on the Database. The row-major [][]Value layout stays the source of truth
// — output rows are always gathered from Table.Rows, never reconstructed
// from the arrays — so the columnar form is purely an acceleration
// structure for the vectorized kernels in vec.go: filter masks and
// aggregate folds stride over packed float64/string arrays instead of
// 48-byte Value structs scattered across row slices.

// colKind classifies the non-NULL values observed in one column. Kernels
// only run over kinds whose Compare semantics they can mirror exactly:
// numeric kinds compare as float64 (Compare's rule for int/float), string
// columns compare with compareFold plus an exact tiebreak. Everything else
// (bool, mixed domains, NaN) is kindOther and handled by the generic
// row-at-a-time fallback.
type colKind uint8

const (
	// kindEmpty means every value is NULL (or the table has no rows).
	kindEmpty colKind = iota
	// kindInt: all non-NULL values are TypeInt.
	kindInt
	// kindFloat: all non-NULL values are TypeFloat, none NaN.
	kindFloat
	// kindNum: a mix of TypeInt and TypeFloat, none NaN.
	kindNum
	// kindString: all non-NULL values are TypeText.
	kindString
	// kindOther: bool values, mixed text/number domains, or NaN — Compare
	// is not faithfully representable in a typed array (bool equates with
	// both numbers and text; NaN Compare-equals every number).
	kindOther
)

// colData is one column's typed projection.
type colData struct {
	kind colKind
	// nulls flags NULL slots; nil when the column has no NULLs.
	nulls []bool
	// nums holds the float64 rendering of every non-NULL value for the
	// numeric kinds (NULL slots are zero and must be guarded by nulls).
	nums []float64
	// strs holds the raw strings for kindString.
	strs []string
}

// null reports whether row i is NULL in this column.
func (c *colData) null(i int) bool { return c.nulls != nil && c.nulls[i] }

// compareRows orders rows i and j exactly as Compare orders their values:
// NULL first, numbers as float64, text by compareFold then bytes. It holds
// for every kind but kindOther.
func (c *colData) compareRows(i, j int32) int {
	if c.nulls != nil && (c.nulls[i] || c.nulls[j]) {
		switch {
		case c.nulls[i] && c.nulls[j]:
			return 0
		case c.nulls[i]:
			return -1
		}
		return 1
	}
	if c.kind == kindString {
		return cmpText(c.strs[i], c.strs[j])
	}
	return cmpFloat(c.nums[i], c.nums[j])
}

// colTable is the columnar projection of one table at a point in time.
type colTable struct {
	t *Table
	// n is the row count the projection was built from; the supported DDL
	// surface can only append rows, so n != len(t.Rows) is the complete
	// staleness signal (same contract as Database.scanEnvs).
	n    int
	cols []colData
}

// buildColTable projects t into typed column arrays.
func buildColTable(t *Table) *colTable {
	n := len(t.Rows)
	ct := &colTable{t: t, n: n, cols: make([]colData, len(t.Columns))}
	for ci := range t.Columns {
		c := &ct.cols[ci]
		// Pass 1: classify the column's non-NULL domain.
		kind := kindEmpty
		hasNull := false
		for _, row := range t.Rows {
			v := row[ci]
			switch v.T {
			case TypeNull:
				hasNull = true
				continue
			case TypeInt:
				switch kind {
				case kindEmpty:
					kind = kindInt
				case kindFloat, kindNum:
					kind = kindNum
				case kindInt:
				default:
					kind = kindOther
				}
			case TypeFloat:
				if math.IsNaN(v.F()) {
					kind = kindOther
					break
				}
				switch kind {
				case kindEmpty:
					kind = kindFloat
				case kindInt, kindNum:
					kind = kindNum
				case kindFloat:
				default:
					kind = kindOther
				}
			case TypeText:
				if kind == kindEmpty || kind == kindString {
					kind = kindString
				} else {
					kind = kindOther
				}
			default:
				kind = kindOther
			}
		}
		c.kind = kind
		if hasNull {
			c.nulls = make([]bool, n)
		}
		// Pass 2: fill the typed array for kernel-usable kinds.
		switch kind {
		case kindInt, kindFloat, kindNum:
			c.nums = make([]float64, n)
			for i, row := range t.Rows {
				v := row[ci]
				if v.T == TypeNull {
					c.nulls[i] = true
					continue
				}
				f, _ := v.AsFloat()
				c.nums[i] = f
			}
		case kindString:
			c.strs = make([]string, n)
			for i, row := range t.Rows {
				v := row[ci]
				if v.T == TypeNull {
					c.nulls[i] = true
					continue
				}
				c.strs[i] = v.S
			}
		default:
			if hasNull {
				for i, row := range t.Rows {
					if row[ci].T == TypeNull {
						c.nulls[i] = true
					}
				}
			}
		}
	}
	return ct
}

// colTable returns the cached columnar projection of t, rebuilding it when
// rows were appended since the last build. Safe for concurrent use; the
// projection itself is immutable once returned.
func (db *Database) colTable(t *Table) *colTable {
	db.colMu.Lock()
	defer db.colMu.Unlock()
	if ct, ok := db.colCache[t]; ok && ct.n == len(t.Rows) {
		return ct
	}
	ct := buildColTable(t)
	if db.colCache == nil {
		db.colCache = map[*Table]*colTable{}
	}
	db.colCache[t] = ct
	return ct
}
