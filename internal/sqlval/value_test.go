package sqlval

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value should be NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("kind = %v, want KindNull", v.Kind())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := Int(42).AsInt(); got != 42 {
		t.Errorf("Int(42).AsInt() = %d", got)
	}
	if got := Float(2.5).AsFloat(); got != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %g", got)
	}
	if got := String("abc").AsString(); got != "abc" {
		t.Errorf("String(abc).AsString() = %q", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round-trip failed")
	}
	if got := Date(100).DateDays(); got != 100 {
		t.Errorf("Date(100).DateDays() = %d", got)
	}
	if got := Int(7).AsFloat(); got != 7.0 {
		t.Errorf("Int(7).AsFloat() = %g", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"AsInt on string", func() { String("x").AsInt() }},
		{"AsString on int", func() { Int(1).AsString() }},
		{"AsBool on int", func() { Int(1).AsBool() }},
		{"AsFloat on string", func() { String("x").AsFloat() }},
		{"DateDays on int", func() { Int(1).DateDays() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c.f()
		})
	}
}

func TestDateParsing(t *testing.T) {
	v := MustParseDate("1970-01-02")
	if v.DateDays() != 1 {
		t.Errorf("1970-01-02 = day %d, want 1", v.DateDays())
	}
	if s := v.String(); s != "1970-01-02" {
		t.Errorf("String() = %q", s)
	}
	tm := time.Date(1995, 3, 15, 13, 30, 0, 0, time.UTC)
	if got, want := DateFromTime(tm), MustParseDate("1995-03-15"); Compare(got, want) != 0 {
		t.Errorf("DateFromTime = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParseDate should panic on garbage")
		}
	}()
	MustParseDate("not-a-date")
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.0), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{Bool(false), Bool(true), -1},
		{Date(1), Date(2), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareNaNTotalOrder(t *testing.T) {
	nan := Float(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN should equal itself in the total order")
	}
	if Compare(nan, Float(0)) != -1 || Compare(Float(0), nan) != 1 {
		t.Error("NaN should sort before numbers")
	}
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null()
	case 1:
		return Int(r.Int63n(100) - 50)
	case 2:
		return Float(float64(r.Int63n(100)-50) / 4)
	case 3:
		return String(string(rune('a' + r.Intn(26))))
	case 4:
		return Bool(r.Intn(2) == 0)
	default:
		return Date(r.Int63n(1000))
	}
}

// Property: Compare is antisymmetric and transitive (spot-checked via sorted
// triples), and values that Compare equal hash identically.
func TestComparePropertyQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	antisym := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randValue(r), randValue(r)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(antisym, cfg); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	trans := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randValue(r), randValue(r), randValue(r)
		// Sort the triple and verify pairwise consistency.
		vs := []Value{a, b, c}
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if Compare(vs[i], vs[j]) > 0 {
					vs[i], vs[j] = vs[j], vs[i]
				}
			}
		}
		return Compare(vs[0], vs[1]) <= 0 && Compare(vs[1], vs[2]) <= 0 && Compare(vs[0], vs[2]) <= 0
	}
	if err := quick.Check(trans, cfg); err != nil {
		t.Errorf("transitivity: %v", err)
	}
	hashEq := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randValue(r), randValue(r)
		if Compare(a, b) == 0 {
			return Hash(a) == Hash(b)
		}
		return true
	}
	if err := quick.Check(hashEq, cfg); err != nil {
		t.Errorf("hash consistency: %v", err)
	}
}

func TestHashCrossKindNumericEquality(t *testing.T) {
	if Hash(Int(7)) != Hash(Float(7.0)) {
		t.Error("Int(7) and Float(7.0) must hash alike (they compare equal)")
	}
	if Hash(Float(0.0)) != Hash(Float(math.Copysign(0, -1))) {
		t.Error("+0 and -0 must hash alike")
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(Int(2), Int(3)); Compare(got, Int(5)) != 0 {
		t.Errorf("2+3 = %v", got)
	}
	if got := Add(Int(2), Float(0.5)); Compare(got, Float(2.5)) != 0 {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := Sub(Int(2), Int(3)); Compare(got, Int(-1)) != 0 {
		t.Errorf("2-3 = %v", got)
	}
	if got := Mul(Float(2), Float(3)); Compare(got, Float(6)) != 0 {
		t.Errorf("2*3 = %v", got)
	}
	if got := Div(Int(7), Int(2)); Compare(got, Float(3.5)) != 0 {
		t.Errorf("7/2 = %v", got)
	}
	if got := Div(Int(1), Int(0)); !got.IsNull() {
		t.Errorf("1/0 = %v, want NULL", got)
	}
	for _, v := range []Value{Add(Null(), Int(1)), Sub(Int(1), Null()), Mul(Null(), Null()), Div(Null(), Int(2))} {
		if !v.IsNull() {
			t.Errorf("NULL arithmetic produced %v", v)
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{String("hi"), "'hi'"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindNull: "NULL", KindInt: "BIGINT", KindFloat: "DOUBLE",
		KindString: "VARCHAR", KindBool: "BOOLEAN", KindDate: "DATE",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNumeric(t *testing.T) {
	if !Int(1).Numeric() || !Float(1).Numeric() {
		t.Error("ints and floats are numeric")
	}
	if String("x").Numeric() || Null().Numeric() || Bool(true).Numeric() || Date(0).Numeric() {
		t.Error("strings/null/bool/date are not numeric")
	}
}

// Property: binary encoding round-trips every value exactly.
func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Encode a run of values back-to-back and decode them all.
		var vals []Value
		n := 1 + r.Intn(8)
		var buf []byte
		for i := 0; i < n; i++ {
			v := randValue(r)
			vals = append(vals, v)
			buf = v.AppendBinary(buf)
		}
		got := make([]Value, n)
		rest, _, err := DecodeRow(got, buf, n, nil)
		if err != nil {
			return false
		}
		for i, want := range vals {
			if got[i].Kind() != want.Kind() || Compare(got[i], want) != 0 {
				return false
			}
		}
		return len(rest) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRowErrors gives DecodeRow one value cut short or ill-formed in
// each of the ways it checks, and requires that check's error at column 0
// whether the value is kept or stepped over.
func TestDecodeRowErrors(t *testing.T) {
	for _, tc := range []struct {
		buf  []byte
		want string
	}{
		{nil, "sqlval: empty buffer"},
		{[]byte{99}, "sqlval: unknown kind tag 99"},
		{[]byte{byte(KindFloat), 1, 2}, "sqlval: truncated float"},
		{[]byte{byte(KindString), 200}, "sqlval: truncated string"},
		{[]byte{byte(KindString), 5, 'a'}, "sqlval: truncated string"},
		{[]byte{byte(KindBool)}, "sqlval: truncated bool"},
		{[]byte{byte(KindInt), 0x80}, "sqlval: bad varint"},
		{[]byte{byte(KindDate), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, "sqlval: bad varint"},
		{[]byte{byte(KindInt), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00}, "sqlval: bad varint"},
	} {
		for _, keep := range [][]int{nil, {0}, {}} {
			var dst [1]Value
			_, col, err := DecodeRow(dst[:], tc.buf, 1, keep)
			if err == nil || err.Error() != tc.want || col != 0 {
				t.Errorf("%x keeping %v: col %d error %v, want col 0 %q", tc.buf, keep, col, err, tc.want)
			}
		}
	}
}

// sameDecoded reports whether two decoded values are the same value: the
// same kind and payload bits, or the same string contents.
func sameDecoded(a, b Value) bool {
	if a.Kind() == KindString || b.Kind() == KindString {
		return a.Kind() == b.Kind() && a.str() == b.str()
	}
	return a.p == b.p && a.i == b.i
}

// keepLists returns nil (every column) and every strictly ascending list of
// positions below cols.
func keepLists(cols int) [][]int {
	lists := [][]int{nil}
	for mask := 0; mask < 1<<cols; mask++ {
		keep := []int{}
		for c := 0; c < cols; c++ {
			if mask&(1<<c) != 0 {
				keep = append(keep, c)
			}
		}
		lists = append(lists, keep)
	}
	return lists
}

// Property: a narrowed DecodeRow is the full decode projected onto its keep
// list. Over seeded rows of one to six values drawn from referenceSet (every
// kind, 1- to 10-byte varints, empty and multi-byte strings), every keep
// list gets the full decode's values at its positions and the same rest. On
// every truncation of a row's encoding, and on every single-bit flip and
// 0x00 or 0xff overwrite of each of its bytes, every keep list fails
// exactly when the full decode fails, at the same column with the same
// error, and otherwise agrees with it as above.
func TestDecodeRowKeepsAgreeWithFullDecode(t *testing.T) {
	refs := referenceSet()
	r := rand.New(rand.NewSource(7))
	full := make([]Value, 6)
	part := make([]Value, 6)
	agree := func(buf []byte, cols int, lists [][]int) error {
		fullRest, fullCol, fullErr := DecodeRow(full, buf, cols, nil)
		for _, keep := range lists[1:] {
			rest, col, err := DecodeRow(part, buf, cols, keep)
			switch {
			case (err == nil) != (fullErr == nil):
				return fmt.Errorf("keep %v: error %v, full decode %v", keep, err, fullErr)
			case err != nil && (err.Error() != fullErr.Error() || col != fullCol):
				return fmt.Errorf("keep %v: col %d %v, full decode col %d %v", keep, col, err, fullCol, fullErr)
			case err != nil:
				continue
			case len(rest) != len(fullRest):
				return fmt.Errorf("keep %v: %d bytes left, full decode %d", keep, len(rest), len(fullRest))
			}
			for k, c := range keep {
				if !sameDecoded(part[k], full[c]) {
					return fmt.Errorf("keep %v: value %d is %s, full decode has %s at col %d", keep, k, part[k], full[c], c)
				}
			}
		}
		return nil
	}
	for range 300 {
		cols := 1 + r.Intn(6)
		lists := keepLists(cols)
		row := make([]ref, cols)
		var enc []byte
		for c := range row {
			row[c] = refs[r.Intn(len(refs))]
			enc = row[c].value().AppendBinary(enc)
		}
		rest, _, err := DecodeRow(full, append(enc, 0xEE), cols, nil)
		if err != nil || len(rest) != 1 {
			t.Fatalf("%v: error %v, %d bytes left", row, err, len(rest))
		}
		for c, x := range row {
			if !sameDecoded(full[c], x.value()) {
				t.Fatalf("%v: col %d decodes to %s", row, c, full[c])
			}
		}
		if err := agree(enc, cols, lists); err != nil {
			t.Fatalf("%v: %v", row, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if err := agree(enc[:cut], cols, lists); err != nil {
				t.Fatalf("%v cut to %d bytes: %v", row, cut, err)
			}
		}
		damaged := make([]byte, len(enc))
		for i := range enc {
			for _, b := range []byte{1, 2, 4, 8, 16, 32, 64, 128, 0, 0xff} {
				copy(damaged, enc)
				if b == 0 || b == 0xff {
					damaged[i] = b
				} else {
					damaged[i] ^= b
				}
				if err := agree(damaged, cols, lists); err != nil {
					t.Fatalf("%v with byte %d set to %#x: %v", row, i, damaged[i], err)
				}
			}
		}
	}
}

// TestDetachCopiesStrings holds Detach to its contract: afterwards the
// values read the same, share no byte with the buffer they were decoded
// from, and every string's bytes sit in one slab in value order.
func TestDetachCopiesStrings(t *testing.T) {
	row := []Value{String("lineitem"), Int(-7), String(""), Null(), String("é"), Float(2.5)}
	var buf []byte
	for _, v := range row {
		buf = v.AppendBinary(buf)
	}
	got := make([]Value, len(row))
	if _, _, err := DecodeRow(got, buf, len(row), nil); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(got[0].AsString()) != &buf[2] {
		t.Fatal("a decoded string does not read its buffer in place")
	}
	Detach(got)
	clear(buf)
	for i, v := range row {
		if !sameDecoded(got[i], v) {
			t.Errorf("value %d is %s after Detach, want %s", i, got[i], v)
		}
	}
	if a, b := unsafe.StringData(got[0].AsString()), unsafe.StringData(got[4].AsString()); uintptr(unsafe.Pointer(b))-uintptr(unsafe.Pointer(a)) != 8 {
		t.Error("the strings do not share one slab")
	}
}

// TestValueIsSixteenBytes pins the layout: a tag-or-data pointer and a
// 64-bit payload. Every table the engine holds is rows of Values, so a
// wider Value widens the resident database in proportion.
func TestValueIsSixteenBytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
}

// ref is a test-held reference for a Value: its kind and the Go value it
// holds (int64 for ints and dates, float64, string, bool, nil for NULL).
type ref struct {
	k Kind
	v any
}

func (r ref) value() Value {
	switch r.k {
	case KindInt:
		return Int(r.v.(int64))
	case KindFloat:
		return Float(r.v.(float64))
	case KindString:
		return String(r.v.(string))
	case KindBool:
		return Bool(r.v.(bool))
	case KindDate:
		return Date(r.v.(int64))
	}
	return Null()
}

func (r ref) String() string {
	switch r.k {
	case KindInt:
		return strconv.FormatInt(r.v.(int64), 10)
	case KindFloat:
		return strconv.FormatFloat(r.v.(float64), 'g', -1, 64)
	case KindString:
		return "'" + r.v.(string) + "'"
	case KindBool:
		if r.v.(bool) {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		return time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(r.v.(int64))).Format(time.DateOnly)
	}
	return "NULL"
}

// refCompare is the total order Compare documents, over references: NULL
// first; ints exactly against ints; other numeric pairs as float64 (NaN
// first, -0 = +0, which is cmp.Compare's float order); other kinds by tag,
// then by content.
func refCompare(a, b ref) int {
	switch {
	case a.k == KindNull || b.k == KindNull:
		return cmp.Compare(boolInt(b.k == KindNull), boolInt(a.k == KindNull))
	case a.k == KindInt && b.k == KindInt:
		return cmp.Compare(a.v.(int64), b.v.(int64))
	case a.numeric() && b.numeric():
		return cmp.Compare(a.float(), b.float())
	case a.k != b.k:
		return cmp.Compare(a.k, b.k)
	case a.k == KindString:
		return strings.Compare(a.v.(string), b.v.(string))
	case a.k == KindBool:
		return cmp.Compare(boolInt(a.v.(bool)), boolInt(b.v.(bool)))
	}
	return cmp.Compare(a.v.(int64), b.v.(int64)) // dates
}

func (r ref) numeric() bool { return r.k == KindInt || r.k == KindFloat }

func (r ref) float() float64 {
	if r.k == KindInt {
		return float64(r.v.(int64))
	}
	return r.v.(float64)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// refEncode is the binary format, written out: the kind byte, then a
// varint (int, date), one byte (bool), eight little-endian bytes (float)
// or a uvarint length and the bytes (string).
func refEncode(r ref) []byte {
	b := []byte{byte(r.k)}
	switch r.k {
	case KindInt, KindDate:
		b = binary.AppendVarint(b, r.v.(int64))
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.v.(float64)))
	case KindString:
		b = binary.AppendUvarint(b, uint64(len(r.v.(string))))
		b = append(b, r.v.(string)...)
	case KindBool:
		b = append(b, byte(boolInt(r.v.(bool))))
	}
	return b
}

// referenceSet is the property test's value set: NULL; the empty string,
// alone and as a zero-length substring; substrings that share one backing
// array, among them equal contents at different addresses; NaN, -0,
// MinInt64, MaxInt64 and the infinities; integral floats beside the ints
// they equal; and seeded random values of every kind, the strings again
// cut from one shared backing array.
func referenceSet() []ref {
	backing := strings.Repeat("abcé", 3)
	negZero := math.Copysign(0, -1)
	refs := []ref{
		{KindNull, nil},
		{KindString, ""}, {KindString, backing[4:4]},
		{KindString, backing[:1]}, {KindString, backing[:2]}, {KindString, backing[:5]},
		{KindString, backing[5:10]}, {KindString, backing[10:15]}, {KindString, backing[1:3]},
		{KindString, string([]byte("abc"))},
		{KindFloat, math.NaN()}, {KindFloat, negZero}, {KindFloat, 0.0}, {KindInt, int64(0)},
		{KindInt, int64(math.MinInt64)}, {KindFloat, float64(math.MinInt64)}, {KindInt, int64(math.MinInt64 + 1)},
		{KindInt, int64(math.MaxInt64)}, {KindFloat, math.Inf(1)}, {KindFloat, math.Inf(-1)},
		{KindInt, int64(5)}, {KindFloat, 5.0}, {KindFloat, 5.5}, {KindInt, int64(-3)}, {KindFloat, -3.0},
		{KindBool, false}, {KindBool, true},
		{KindDate, int64(0)}, {KindDate, int64(5)}, {KindDate, int64(-1)}, {KindDate, int64(10_000)},
	}
	r := rand.New(rand.NewSource(1))
	long := strings.Repeat("xyzzy", 8)
	for range 200 {
		var x ref
		switch r.Intn(6) {
		case 0:
			x = ref{KindNull, nil}
		case 1:
			x = ref{KindInt, r.Int63n(20) - 10}
		case 2:
			if r.Intn(2) == 0 {
				x = ref{KindFloat, float64(r.Int63n(20) - 10)}
			} else {
				x = ref{KindFloat, r.NormFloat64()}
			}
		case 3:
			i := r.Intn(len(long))
			x = ref{KindString, long[i : i+r.Intn(len(long)-i+1)]}
		case 4:
			x = ref{KindBool, r.Intn(2) == 0}
		default:
			x = ref{KindDate, r.Int63n(20) - 10}
		}
		refs = append(refs, x)
	}
	return refs
}

// TestValuesAgreeWithReference holds every accessor, the renderer, the
// order, equality, hashing and the binary format to the test-held
// reference, for every value of referenceSet and every pair of them.
func TestValuesAgreeWithReference(t *testing.T) {
	refs := referenceSet()
	vals := make([]Value, len(refs))
	for i, r := range refs {
		v := r.value()
		vals[i] = v
		if v.Kind() != r.k || v.IsNull() != (r.k == KindNull) || v.Numeric() != r.numeric() {
			t.Fatalf("%s: kind %v, IsNull %v, Numeric %v; want kind %v", r, v.Kind(), v.IsNull(), v.Numeric(), r.k)
		}
		ok := true
		switch r.k {
		case KindInt:
			ok = v.AsInt() == r.v.(int64)
		case KindFloat:
			ok = math.Float64bits(v.AsFloat()) == math.Float64bits(r.v.(float64))
		case KindString:
			ok = v.AsString() == r.v.(string)
		case KindBool:
			ok = v.AsBool() == r.v.(bool)
		case KindDate:
			ok = v.DateDays() == r.v.(int64)
		}
		if !ok {
			t.Errorf("%s: the payload accessor does not return the value it was built from", r)
		}
		if got, want := v.String(), r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		enc := v.AppendBinary([]byte{0xEE})
		if want := refEncode(r); string(enc[1:]) != string(want) {
			t.Fatalf("%s encodes as %x, want %x", r, enc[1:], want)
		}
		out := make([]Value, 1)
		rest, _, err := DecodeRow(out, append(enc[1:], 0xEE), 1, nil)
		dec := out[0]
		if err != nil || len(rest) != 1 || rest[0] != 0xEE {
			t.Fatalf("%s: decode error %v, %d bytes left", r, err, len(rest))
		}
		if dec.Kind() != r.k || dec.String() != r.String() || Compare(dec, v) != 0 || Hash(dec) != Hash(v) {
			t.Errorf("%s decodes to %s (kind %v)", r, dec, dec.Kind())
		}
	}
	for i, a := range refs {
		for j, b := range refs {
			want := refCompare(a, b)
			if got := Compare(vals[i], vals[j]); got != want {
				t.Fatalf("Compare(%s, %s) = %d, want %d", a, b, got, want)
			}
			if want == 0 && Hash(vals[i]) != Hash(vals[j]) {
				t.Fatalf("%s and %s are equal but hash apart", a, b)
			}
		}
	}
}

// MustParseDate parses "YYYY-MM-DD" and panics on malformed input. It is
// intended for literals in tests and generators.
func MustParseDate(s string) Value {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(fmt.Sprintf("sqlval: bad date literal %q: %v", s, err))
	}
	return DateFromTime(t)
}
