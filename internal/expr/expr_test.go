package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

var testSchema = schema.New(
	schema.Column{Table: "t", Name: "a", Type: sqlval.KindInt},
	schema.Column{Table: "t", Name: "b", Type: sqlval.KindString},
	schema.Column{Table: "t", Name: "c", Type: sqlval.KindFloat},
)

func row(a int64, b string, c float64) schema.Row {
	return schema.Row{sqlval.Int(a), sqlval.String(b), sqlval.Float(c)}
}

func TestColEval(t *testing.T) {
	c := NewCol(testSchema, "t", "b")
	if got := c.Eval(row(1, "x", 2)); got.AsString() != "x" {
		t.Errorf("col eval = %v", got)
	}
	if c.String() != "t.b" {
		t.Errorf("col string = %q", c.String())
	}
	anon := Col{Index: 2}
	if anon.String() != "$2" {
		t.Errorf("anon col string = %q", anon.String())
	}
}

func TestCmpOperators(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	five := Literal(sqlval.Int(5))
	r := row(5, "x", 0)
	cases := []struct {
		op   CmpOp
		want bool
	}{{EQ, true}, {NE, false}, {LT, false}, {LE, true}, {GT, false}, {GE, true}}
	for _, c := range cases {
		got := Compare(c.op, a, five).Eval(r)
		if got.AsBool() != c.want {
			t.Errorf("5 %s 5 = %v, want %v", c.op, got, c.want)
		}
	}
	r2 := row(3, "x", 0)
	if !Compare(LT, a, five).Eval(r2).AsBool() {
		t.Error("3 < 5 should be true")
	}
}

func TestCmpNullSemantics(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	nullRow := schema.Row{sqlval.Null(), sqlval.String(""), sqlval.Float(0)}
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		if got := Compare(op, a, Literal(sqlval.Int(1))).Eval(nullRow); !got.IsNull() {
			t.Errorf("NULL %s 1 = %v, want NULL", op, got)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tr := Literal(sqlval.Bool(true))
	fa := Literal(sqlval.Bool(false))
	nu := Literal(sqlval.Null())
	r := schema.Row{}
	cases := []struct {
		name string
		e    Expr
		want sqlval.Value
	}{
		{"T AND N", And(tr, nu), sqlval.Null()},
		{"F AND N", And(fa, nu), sqlval.Bool(false)},
		{"N AND F", And(nu, fa), sqlval.Bool(false)},
		{"N AND T", And(nu, tr), sqlval.Null()},
		{"T OR N", Or(tr, nu), sqlval.Bool(true)},
		{"N OR T", Or(nu, tr), sqlval.Bool(true)},
		{"F OR N", Or(fa, nu), sqlval.Null()},
		{"N OR N", Or(nu, nu), sqlval.Null()},
		{"NOT N", Not{nu}, sqlval.Null()},
		{"NOT T", Not{tr}, sqlval.Bool(false)},
		{"empty AND", And(), sqlval.Bool(true)},
		{"empty OR", Or(), sqlval.Bool(false)},
	}
	for _, c := range cases {
		got := c.e.Eval(r)
		if got.IsNull() != c.want.IsNull() || (!got.IsNull() && got.AsBool() != c.want.AsBool()) {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAndOrVariadic(t *testing.T) {
	tr := Literal(sqlval.Bool(true))
	fa := Literal(sqlval.Bool(false))
	if !Truthy(And(tr, tr, tr).Eval(nil)) {
		t.Error("AND(T,T,T) should be true")
	}
	if Truthy(And(tr, fa, tr).Eval(nil)) {
		t.Error("AND(T,F,T) should be false")
	}
	if !Truthy(Or(fa, fa, tr).Eval(nil)) {
		t.Error("OR(F,F,T) should be true")
	}
}

func TestArith(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	c := NewCol(testSchema, "t", "c")
	r := row(6, "", 1.5)
	if got := NewArith(AddOp, a, c).Eval(r); got.AsFloat() != 7.5 {
		t.Errorf("6+1.5 = %v", got)
	}
	if got := NewArith(SubOp, a, Literal(sqlval.Int(2))).Eval(r); got.AsInt() != 4 {
		t.Errorf("6-2 = %v", got)
	}
	if got := NewArith(MulOp, a, a).Eval(r); got.AsInt() != 36 {
		t.Errorf("6*6 = %v", got)
	}
	if got := NewArith(DivOp, a, Literal(sqlval.Int(4))).Eval(r); got.AsFloat() != 1.5 {
		t.Errorf("6/4 = %v", got)
	}
}

func TestIsNull(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	nullRow := schema.Row{sqlval.Null(), sqlval.Null(), sqlval.Null()}
	if !(IsNull{E: a}).Eval(nullRow).AsBool() {
		t.Error("IS NULL on null should be true")
	}
	if (IsNull{E: a, Negate: true}).Eval(nullRow).AsBool() {
		t.Error("IS NOT NULL on null should be false")
	}
	if (IsNull{E: a}).Eval(row(1, "", 0)).AsBool() {
		t.Error("IS NULL on 1 should be false")
	}
}

func TestInList(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	in := InList{E: a, List: []Expr{Literal(sqlval.Int(1)), Literal(sqlval.Int(3))}}
	if !in.Eval(row(3, "", 0)).AsBool() {
		t.Error("3 IN (1,3) should be true")
	}
	if in.Eval(row(2, "", 0)).AsBool() {
		t.Error("2 IN (1,3) should be false")
	}
	inWithNull := InList{E: a, List: []Expr{Literal(sqlval.Int(1)), Literal(sqlval.Null())}}
	if got := inWithNull.Eval(row(2, "", 0)); !got.IsNull() {
		t.Errorf("2 IN (1,NULL) = %v, want NULL", got)
	}
	if !inWithNull.Eval(row(1, "", 0)).AsBool() {
		t.Error("1 IN (1,NULL) should be true")
	}
}

func TestLike(t *testing.T) {
	b := NewCol(testSchema, "t", "b")
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "x%", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"promo burnished", "promo%", true},
		{"special requests", "%special%requests%", true},
		{"abc", "a%c%", true},
		{"abc", "%b%", true},
		{"aXbXc", "a%b%c", true},
		{"ac", "a%b%c", false},
	}
	for _, c := range cases {
		got := Like{E: b, Pattern: c.p}.Eval(row(0, c.s, 0))
		if got.AsBool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	if !(Like{E: b, Pattern: "x%", Negate: true}).Eval(row(0, "hello", 0)).AsBool() {
		t.Error("NOT LIKE negation failed")
	}
	if got := (Like{E: b, Pattern: "%"}).Eval(schema.Row{sqlval.Int(0), sqlval.Null(), sqlval.Float(0)}); !got.IsNull() {
		t.Errorf("NULL LIKE pattern = %v, want NULL", got)
	}
}

func TestCase(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	c := Case{
		Whens: []When{
			{Cond: Compare(LT, a, Literal(sqlval.Int(0))), Result: Literal(sqlval.String("neg"))},
			{Cond: Compare(EQ, a, Literal(sqlval.Int(0))), Result: Literal(sqlval.String("zero"))},
		},
		Else: Literal(sqlval.String("pos")),
	}
	for _, tc := range []struct {
		a    int64
		want string
	}{{-1, "neg"}, {0, "zero"}, {5, "pos"}} {
		if got := c.Eval(row(tc.a, "", 0)); got.AsString() != tc.want {
			t.Errorf("case(%d) = %v, want %s", tc.a, got, tc.want)
		}
	}
	noElse := Case{Whens: []When{{Cond: Literal(sqlval.Bool(false)), Result: Literal(sqlval.Int(1))}}}
	if got := noElse.Eval(nil); !got.IsNull() {
		t.Errorf("case without else = %v, want NULL", got)
	}
}

func TestStringRendering(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	e := And(Compare(GE, a, Literal(sqlval.Int(1))), Not{Compare(EQ, a, Literal(sqlval.Int(3)))})
	want := "((t.a >= 1) AND (NOT (t.a = 3)))"
	if got := e.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: LIKE with no wildcards is exact string equality.
func TestLikeNoWildcardsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(8)
		buf := make([]rune, n)
		for i := range buf {
			buf[i] = rune('a' + r.Intn(4))
		}
		s := string(buf)
		other := s + "x"
		return likeMatch(s, s) && !likeMatch(other, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAggStates(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	rows := []schema.Row{
		row(1, "", 0), row(5, "", 0),
		{sqlval.Null(), sqlval.String(""), sqlval.Float(0)},
		row(3, "", 0),
	}
	feed := func(ag Agg) sqlval.Value {
		s := NewAggState(ag)
		for _, r := range rows {
			s.Add(r)
		}
		return s.Result()
	}
	if got := feed(Agg{Kind: AggCountStar}); got.AsInt() != 4 {
		t.Errorf("COUNT(*) = %v", got)
	}
	if got := feed(Agg{Kind: AggCount, Arg: a}); got.AsInt() != 3 {
		t.Errorf("COUNT(a) = %v (nulls must be skipped)", got)
	}
	if got := feed(Agg{Kind: AggSum, Arg: a}); got.AsInt() != 9 {
		t.Errorf("SUM(a) = %v", got)
	}
	if got := feed(Agg{Kind: AggAvg, Arg: a}); got.AsFloat() != 3 {
		t.Errorf("AVG(a) = %v", got)
	}
	if got := feed(Agg{Kind: AggMin, Arg: a}); got.AsInt() != 1 {
		t.Errorf("MIN(a) = %v", got)
	}
	if got := feed(Agg{Kind: AggMax, Arg: a}); got.AsInt() != 5 {
		t.Errorf("MAX(a) = %v", got)
	}
}

func TestAggEmptyGroup(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	for _, k := range []AggKind{AggSum, AggAvg, AggMin, AggMax} {
		if got := NewAggState(Agg{Kind: k, Arg: a}).Result(); !got.IsNull() {
			t.Errorf("%v over empty group = %v, want NULL", k, got)
		}
	}
	if got := NewAggState(Agg{Kind: AggCountStar}).Result(); got.AsInt() != 0 {
		t.Errorf("COUNT(*) over empty group = %v, want 0", got)
	}
	if got := NewAggState(Agg{Kind: AggCount, Arg: a}).Result(); got.AsInt() != 0 {
		t.Errorf("COUNT over empty group = %v, want 0", got)
	}
}

func TestAggSumIntFloatPromotion(t *testing.T) {
	c := NewCol(testSchema, "t", "c")
	s := NewAggState(Agg{Kind: AggSum, Arg: c})
	s.Add(row(0, "", 1.5))
	s.Add(row(0, "", 2.0))
	if got := s.Result(); got.AsFloat() != 3.5 {
		t.Errorf("SUM floats = %v", got)
	}
	// Mixed: int then float.
	a := NewCol(testSchema, "t", "a")
	mixed := NewAggState(Agg{Kind: AggSum, Arg: NewArith(AddOp, a, c)})
	mixed.Add(row(1, "", 0.5))
	if got := mixed.Result(); got.AsFloat() != 1.5 {
		t.Errorf("SUM mixed = %v", got)
	}
}

// Property: SUM/COUNT/AVG consistency — AVG == SUM/COUNT on random int data.
func TestAggAvgConsistencyQuick(t *testing.T) {
	a := NewCol(testSchema, "t", "a")
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		sum := NewAggState(Agg{Kind: AggSum, Arg: a})
		cnt := NewAggState(Agg{Kind: AggCount, Arg: a})
		avg := NewAggState(Agg{Kind: AggAvg, Arg: a})
		for _, v := range vals {
			r := row(int64(v), "", 0)
			sum.Add(r)
			cnt.Add(r)
			avg.Add(r)
		}
		want := float64(sum.Result().AsInt()) / float64(cnt.Result().AsInt())
		return avg.Result().AsFloat() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFuncCallBuiltins(t *testing.T) {
	b := NewCol(testSchema, "t", "b")
	a := NewCol(testSchema, "t", "a")
	eval := func(name string, args ...Expr) sqlval.Value {
		f, _, err := NewFuncCall(name, args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return f.Eval(row(-7, "Hello", 0))
	}
	if got := eval("upper", b); got.AsString() != "HELLO" {
		t.Errorf("UPPER = %v", got)
	}
	if got := eval("LOWER", b); got.AsString() != "hello" {
		t.Errorf("LOWER = %v", got)
	}
	if got := eval("length", b); got.AsInt() != 5 {
		t.Errorf("LENGTH = %v", got)
	}
	if got := eval("abs", a); got.AsInt() != 7 {
		t.Errorf("ABS = %v", got)
	}
	if got := eval("SUBSTR", b, Literal(sqlval.Int(2)), Literal(sqlval.Int(3))); got.AsString() != "ell" {
		t.Errorf("SUBSTR = %v", got)
	}
	if got := eval("SUBSTR", b, Literal(sqlval.Int(4))); got.AsString() != "lo" {
		t.Errorf("SUBSTR open = %v", got)
	}
	if got := eval("SUBSTR", b, Literal(sqlval.Int(99))); got.AsString() != "" {
		t.Errorf("SUBSTR past end = %v", got)
	}
}

func TestFuncCallDates(t *testing.T) {
	d := Literal(sqlval.DateFromTime(time.Date(1995, 3, 15, 0, 0, 0, 0, time.UTC)))
	checks := []struct {
		fn   string
		want int64
	}{{"YEAR", 1995}, {"MONTH", 3}, {"DAY", 15}}
	for _, c := range checks {
		f, kind, err := NewFuncCall(c.fn, []Expr{d})
		if err != nil {
			t.Fatal(err)
		}
		if kind != sqlval.KindInt {
			t.Errorf("%s kind = %v", c.fn, kind)
		}
		if got := f.Eval(nil); got.AsInt() != c.want {
			t.Errorf("%s = %v, want %d", c.fn, got, c.want)
		}
	}
}

func TestFuncCallNullPropagation(t *testing.T) {
	f, _, _ := NewFuncCall("UPPER", []Expr{Literal(sqlval.Null())})
	if got := f.Eval(nil); !got.IsNull() {
		t.Errorf("UPPER(NULL) = %v", got)
	}
}

func TestFuncCallErrors(t *testing.T) {
	if _, _, err := NewFuncCall("nosuchfn", nil); err == nil {
		t.Error("unknown function should error")
	}
	if _, _, err := NewFuncCall("UPPER", nil); err == nil {
		t.Error("arity error expected")
	}
	if _, _, err := NewFuncCall("SUBSTR", []Expr{Literal(sqlval.Null())}); err == nil {
		t.Error("SUBSTR needs 2+ args")
	}
	if len(builtins) < 7 {
		t.Errorf("builtins = %d", len(builtins))
	}
}

func TestFuncCallString(t *testing.T) {
	f, _, _ := NewFuncCall("substr", []Expr{NewCol(testSchema, "t", "b"), Literal(sqlval.Int(1))})
	if got := f.String(); got != "SUBSTR(t.b, 1)" {
		t.Errorf("String = %q", got)
	}
}

func TestCoalesceAndNullIf(t *testing.T) {
	nul := Literal(sqlval.Null())
	one := Literal(sqlval.Int(1))
	two := Literal(sqlval.Int(2))
	co, _, err := NewFuncCall("COALESCE", []Expr{nul, nul, two, one})
	if err != nil {
		t.Fatal(err)
	}
	if got := co.Eval(nil); got.AsInt() != 2 {
		t.Errorf("COALESCE = %v", got)
	}
	coAllNull, _, _ := NewFuncCall("coalesce", []Expr{nul, nul})
	if got := coAllNull.Eval(nil); !got.IsNull() {
		t.Errorf("COALESCE(NULL, NULL) = %v", got)
	}
	ni, _, _ := NewFuncCall("NULLIF", []Expr{one, one})
	if got := ni.Eval(nil); !got.IsNull() {
		t.Errorf("NULLIF(1,1) = %v", got)
	}
	ni2, _, _ := NewFuncCall("NULLIF", []Expr{one, two})
	if got := ni2.Eval(nil); got.AsInt() != 1 {
		t.Errorf("NULLIF(1,2) = %v", got)
	}
	ni3, _, _ := NewFuncCall("NULLIF", []Expr{nul, two})
	if got := ni3.Eval(nil); !got.IsNull() {
		t.Errorf("NULLIF(NULL,2) = %v", got)
	}
}
