// Package engine is an in-memory relational engine: a catalog of typed
// tables plus an executor for the sqlast SELECT surface. It exists so the
// evaluation harness can measure *execution accuracy* — the paper's metric —
// by really running gold and predicted SQL and comparing result sets.
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Type is the dynamic type of a Value.
type Type uint8

// Value types. Dates are stored as TEXT in ISO form (YYYY-MM-DD), which
// makes lexicographic comparison agree with chronological order.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "REAL"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	}
	return "?type?"
}

// Value is a dynamically typed SQL value, 32 bytes wide. I holds an INT's
// value or a REAL's IEEE 754 bits (read through F), so every read of I
// checks T first.
type Value struct {
	S string
	I int64
	T Type
	B bool
}

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{T: TypeNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{T: TypeInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{T: TypeFloat, I: int64(math.Float64bits(f))} }

// Text returns a text value.
func Text(s string) Value { return Value{T: TypeText, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{T: TypeBool, B: b} }

// F returns a REAL value's float, and 0 for every other type.
func (v Value) F() float64 {
	if v.T != TypeFloat {
		return 0
	}
	return math.Float64frombits(uint64(v.I))
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// Truthy reports whether v counts as true in a filter. NULL is not true.
func (v Value) Truthy() bool {
	switch v.T {
	case TypeBool:
		return v.B
	case TypeInt:
		return v.I != 0
	case TypeFloat:
		return v.F() != 0
	case TypeText:
		return v.S != ""
	}
	return false
}

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.T {
	case TypeInt:
		return float64(v.I), true
	case TypeFloat:
		return v.F(), true
	}
	return 0, false
}

// String renders the value the way result tables display it.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return "?value?"
}

// Key renders the value as a canonical map key. Integers and integral floats
// collapse to the same key so that e.g. COUNT results compare equal across
// numeric types.
func (v Value) Key() string { return string(v.appendKey(nil)) }

// appendKey appends the exact bytes Key returns to dst, letting hot dedup
// and grouping loops reuse one scratch buffer instead of allocating a
// string per value.
func (v Value) appendKey(dst []byte) []byte {
	switch v.T {
	case TypeNull:
		return append(dst, "\x00N"...)
	case TypeInt:
		return strconv.AppendInt(append(dst, '#'), v.I, 10)
	case TypeFloat:
		f := v.F()
		if f == float64(int64(f)) {
			return strconv.AppendInt(append(dst, '#'), int64(f), 10)
		}
		return strconv.AppendFloat(append(dst, '#'), f, 'g', -1, 64)
	case TypeText:
		return append(append(dst, 's'), v.S...)
	case TypeBool:
		if v.B {
			return append(dst, "#1"...)
		}
		return append(dst, "#0"...)
	}
	return append(dst, '?')
}

// Compare orders two values: -1, 0, +1. NULL sorts before everything.
// Numeric types compare numerically across int/float/bool; text compares
// lexicographically (case-insensitive, matching common collations used by
// NL2SQL evaluation harnesses). Mixed text/number falls back to the string
// rendering.
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	af, aok := a.numeric()
	bf, bok := b.numeric()
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	as, bs := a.String(), b.String()
	if c := compareFold(as, bs); c != 0 {
		return c
	}
	return strings.Compare(as, bs)
}

// compareFold orders a and b exactly as comparing strings.ToLower(a) to
// strings.ToLower(b) would, without allocating the lowered copies. Lowered
// runes are compared in code-point order, which for UTF-8 text equals byte
// order of the lowered strings (no encoding is a prefix of another);
// invalid bytes decode to U+FFFD, the same replacement ToLower emits.
func compareFold(a, b string) int {
	for len(a) > 0 && len(b) > 0 {
		var ra, rb rune
		if c := a[0]; c < utf8.RuneSelf {
			ra, a = rune(c), a[1:]
		} else {
			r, size := utf8.DecodeRuneInString(a)
			ra, a = r, a[size:]
		}
		if c := b[0]; c < utf8.RuneSelf {
			rb, b = rune(c), b[1:]
		} else {
			r, size := utf8.DecodeRuneInString(b)
			rb, b = r, b[size:]
		}
		if ra == rb {
			continue
		}
		la, lb := lowerRune(ra), lowerRune(rb)
		if la != lb {
			if la < lb {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) > 0:
		return 1
	case len(b) > 0:
		return -1
	}
	return 0
}

func lowerRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'A' <= r && r <= 'Z' {
			return r + ('a' - 'A')
		}
		return r
	}
	return unicode.ToLower(r)
}

func (v Value) numeric() (float64, bool) {
	switch v.T {
	case TypeInt:
		return float64(v.I), true
	case TypeFloat:
		return v.F(), true
	case TypeBool:
		if v.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Equal reports SQL equality (NULL never equals anything, including NULL).
// The second result is false when the comparison involves NULL.
func Equal(a, b Value) (eq, known bool) {
	if a.IsNull() || b.IsNull() {
		return false, false
	}
	return Compare(a, b) == 0, true
}

// ParseLiteral converts literal source text into a Value of the named
// column type. Used when loading INSERT fixtures.
func ParseLiteral(text string, t Type) (Value, error) {
	switch t {
	case TypeInt:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad int literal %q: %w", text, err)
		}
		return Int(i), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad float literal %q: %w", text, err)
		}
		return Float(f), nil
	case TypeBool:
		switch strings.ToUpper(text) {
		case "TRUE", "1":
			return Bool(true), nil
		case "FALSE", "0":
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("bad bool literal %q", text)
	default:
		return Text(text), nil
	}
}

// TypeFromSQL maps a CREATE TABLE type name onto an engine type.
func TypeFromSQL(name string) Type {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER":
		return TypeInt
	case "REAL", "FLOAT":
		return TypeFloat
	case "BOOL", "BOOLEAN":
		return TypeBool
	default: // TEXT, VARCHAR, DATE, anything else
		return TypeText
	}
}
