// Package sqlval defines the value model used throughout the engine: a
// compact tagged union covering the SQL types needed by the paper's
// workloads (integers, floats, strings, booleans and dates), together with
// NULL, a total comparison order, hashing, and arithmetic helpers.
//
// A Value is 16 bytes — one pointer and one 64-bit payload — so rows copy
// cheaply and the resident database is mostly payload. The pointer is the
// kind tag for every kind but strings, where it is the string's data; see
// Value. The executor copies rows at pipeline boundaries only.
package sqlval

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"time"
	"unsafe"
)

// Kind enumerates the runtime types a Value may hold.
type Kind uint8

// The supported kinds. KindNull is the zero value so that a zero Value is a
// well-formed SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate // stored as days since the Unix epoch
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// A Value is 16 bytes: a pointer p and a payload i. p == nil is NULL. For
// the kinds held in i — Int, Bool (0/1), Date (days since the epoch) and
// Float (its IEEE-754 bits) — p points at kindTags[kind]. Any other p is a
// string's data pointer and i is its length; the empty string points at
// emptyStr, so a string is never mistaken for NULL. Kind is therefore one
// pointer-offset compare and a nil test, and a string costs no header beyond
// the two words every Value has.
//
// Value is not comparable: == or a map key would compare string data
// pointers, not contents, so the zero-length func array makes both a compile
// error. Compare values with Compare.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	i int64
}

// kindTags gives each kind held in the payload its own address: a Value of
// such a kind k has p == &kindTags[k]. Nothing reads or writes the bytes.
var kindTags [6]byte

// emptyStr is the data pointer of every empty string Value.
var emptyStr byte

// tagged builds a Value of a payload-held kind.
func tagged(k Kind, i int64) Value { return Value{p: unsafe.Pointer(&kindTags[k]), i: i} }

// is reports whether v has the payload-held kind k.
func (v Value) is(k Kind) bool { return v.p == unsafe.Pointer(&kindTags[k]) }

// str returns the string payload of a value known to be a string.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.i)) }

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return tagged(KindInt, v) }

// Float returns a double-precision value.
func Float(v float64) Value { return tagged(KindFloat, int64(math.Float64bits(v))) }

// String returns a string value. It shares v's bytes; strings are immutable.
func String(v string) Value {
	if len(v) == 0 {
		return Value{p: unsafe.Pointer(&emptyStr)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), i: int64(len(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return tagged(KindBool, i)
}

// Date returns a date value from days since the Unix epoch.
func Date(days int64) Value { return tagged(KindDate, days) }

// DateFromTime converts a time.Time (UTC date part) to a date value.
func DateFromTime(t time.Time) Value {
	return Date(t.UTC().Unix() / 86400)
}

// Kind reports the runtime kind of the value.
func (v Value) Kind() Kind {
	if off := uintptr(v.p) - uintptr(unsafe.Pointer(&kindTags)); off < uintptr(len(kindTags)) {
		return Kind(off)
	}
	if v.p == nil {
		return KindNull
	}
	return KindString
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.p == nil }

// AsInt returns the integer payload. It panics when the kind is not
// KindInt or KindDate.
func (v Value) AsInt() int64 {
	if !v.is(KindInt) && !v.is(KindDate) {
		panic("sqlval: AsInt on " + v.Kind().String())
	}
	return v.i
}

// AsFloat returns the value as float64, converting integers.
func (v Value) AsFloat() float64 {
	switch {
	case v.is(KindFloat):
		return math.Float64frombits(uint64(v.i))
	case v.is(KindInt), v.is(KindDate):
		return float64(v.i)
	}
	panic("sqlval: AsFloat on " + v.Kind().String())
}

// AsString returns the string payload. It panics on non-strings.
func (v Value) AsString() string {
	if k := v.Kind(); k != KindString {
		panic("sqlval: AsString on " + k.String())
	}
	return v.str()
}

// AsBool returns the boolean payload. It panics on non-booleans.
func (v Value) AsBool() bool {
	if !v.is(KindBool) {
		panic("sqlval: AsBool on " + v.Kind().String())
	}
	return v.i != 0
}

// DateDays returns the day count of a date value.
func (v Value) DateDays() int64 {
	if !v.is(KindDate) {
		panic("sqlval: DateDays on " + v.Kind().String())
	}
	return v.i
}

// Numeric reports whether the value participates in arithmetic.
func (v Value) Numeric() bool {
	return v.is(KindInt) || v.is(KindFloat)
}

// String renders the value for display and plan explanation.
func (v Value) String() string {
	switch k := v.Kind(); k {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case KindString:
		return "'" + v.str() + "'"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		return time.Unix(v.i*86400, 0).UTC().Format("2006-01-02")
	default:
		return fmt.Sprintf("Value(kind=%d)", k)
	}
}

// Compare imposes a total order over values: NULL sorts first, then values
// compare within their numeric/type class. Integers and floats compare
// numerically against each other; otherwise kinds compare by tag. The total
// order lets every value be used as a sort or merge-join key.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.Numeric() && b.Numeric() {
		if a.is(KindInt) && b.is(KindInt) {
			return cmpInt(a.i, b.i)
		}
		return cmpFloat(a.AsFloat(), b.AsFloat())
	}
	ak, bk := a.Kind(), b.Kind()
	if ak != bk {
		return cmpInt(int64(ak), int64(bk))
	}
	switch ak {
	case KindString:
		as, bs := a.str(), b.str()
		switch {
		case as < bs:
			return -1
		case as > bs:
			return 1
		}
		return 0
	case KindBool, KindDate:
		return cmpInt(a.i, b.i)
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// NaNs sort before everything else so the order stays total.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	default:
		return 1
	}
}

var hashSeed = maphash.MakeSeed()

// hashKey is the canonical comparable form a value hashes through: a kind
// tag plus the payload bits. Integers, floats holding integral values, and
// bools/dates sharing a payload are tagged so that values that Compare
// equal produce equal keys.
type hashKey struct {
	tag  uint8
	bits uint64
}

// Hash returns a hash of the value consistent with Compare: integers and
// floats holding the same numeric value, and dates holding the same day,
// hash alike when they compare equal. Hashing goes through
// maphash.Comparable (the runtime's AES-based hasher) rather than a
// streaming maphash.Hash: one fused call instead of per-byte writes.
func Hash(v Value) uint64 {
	switch v.Kind() {
	case KindString:
		return maphash.String(hashSeed, v.str())
	case KindInt:
		// Ints hash through their float64 bits, matching Compare's
		// cross-kind numeric equality (Int(5) == Float(5.0)).
		return maphash.Comparable(hashSeed, hashKey{tag: 1, bits: math.Float64bits(float64(v.i))})
	case KindFloat:
		return maphash.Comparable(hashSeed, hashKey{tag: 1, bits: math.Float64bits(v.AsFloat() + 0)}) // +0 normalizes -0
	case KindBool:
		return maphash.Comparable(hashSeed, hashKey{tag: 4, bits: uint64(v.i)})
	case KindDate:
		return maphash.Comparable(hashSeed, hashKey{tag: 5, bits: uint64(v.i)})
	default:
		return maphash.Comparable(hashSeed, hashKey{tag: 0})
	}
}

// Add returns a+b with SQL NULL propagation. Mixed int/float promotes to
// float.
func Add(a, b Value) Value {
	return arith(a, b, func(x, y int64) int64 { return x + y }, func(x, y float64) float64 { return x + y })
}

// Sub returns a-b with SQL NULL propagation.
func Sub(a, b Value) Value {
	return arith(a, b, func(x, y int64) int64 { return x - y }, func(x, y float64) float64 { return x - y })
}

// Mul returns a*b with SQL NULL propagation.
func Mul(a, b Value) Value {
	return arith(a, b, func(x, y int64) int64 { return x * y }, func(x, y float64) float64 { return x * y })
}

// Div returns a/b; division is always carried out in floating point, and
// division by zero yields NULL (SQL engines raise an error; NULL keeps the
// executor total without an error path in inner loops).
func Div(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null()
	}
	bf := b.AsFloat()
	if bf == 0 {
		return Null()
	}
	return Float(a.AsFloat() / bf)
}

func arith(a, b Value, fi func(int64, int64) int64, ff func(float64, float64) float64) Value {
	if a.IsNull() || b.IsNull() {
		return Null()
	}
	if a.is(KindInt) && b.is(KindInt) {
		return Int(fi(a.i, b.i))
	}
	return Float(ff(a.AsFloat(), b.AsFloat()))
}
