package expr

import (
	"fmt"
	"math"
	"strings"
	"time"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// FuncCall is a scalar builtin function call. All builtins propagate NULL:
// a NULL argument yields NULL.
type FuncCall struct {
	// FuncName is the upper-cased builtin name.
	FuncName string
	Args     []Expr
	impl     func([]sqlval.Value) sqlval.Value
	// keepNulls marks builtins that handle NULL arguments themselves
	// (COALESCE, NULLIF) instead of the default NULL propagation.
	keepNulls bool
}

type builtin struct {
	minArgs, maxArgs int
	kind             sqlval.Kind
	impl             func([]sqlval.Value) sqlval.Value
	// keepNulls suppresses the default NULL-propagation (COALESCE and
	// NULLIF receive NULL arguments).
	keepNulls bool
}

var builtins = map[string]builtin{
	"UPPER": {1, 1, sqlval.KindString, func(a []sqlval.Value) sqlval.Value {
		return sqlval.String(strings.ToUpper(a[0].AsString()))
	}, false},
	"LOWER": {1, 1, sqlval.KindString, func(a []sqlval.Value) sqlval.Value {
		return sqlval.String(strings.ToLower(a[0].AsString()))
	}, false},
	"LENGTH": {1, 1, sqlval.KindInt, func(a []sqlval.Value) sqlval.Value {
		return sqlval.Int(int64(len([]rune(a[0].AsString()))))
	}, false},
	// SUBSTR(s, start [, length]): 1-based start, as in SQL.
	"SUBSTR": {2, 3, sqlval.KindString, func(a []sqlval.Value) sqlval.Value {
		rs := []rune(a[0].AsString())
		start := a[1].AsInt() - 1
		if start < 0 {
			start = 0
		}
		if start > int64(len(rs)) {
			start = int64(len(rs))
		}
		end := int64(len(rs))
		if len(a) == 3 {
			if n := a[2].AsInt(); n >= 0 && start+n < end {
				end = start + n
			}
		}
		return sqlval.String(string(rs[start:end]))
	}, false},
	"ABS": {1, 1, sqlval.KindFloat, func(a []sqlval.Value) sqlval.Value {
		if a[0].Kind() == sqlval.KindInt {
			v := a[0].AsInt()
			if v < 0 {
				v = -v
			}
			return sqlval.Int(v)
		}
		return sqlval.Float(math.Abs(a[0].AsFloat()))
	}, false},
	"YEAR": {1, 1, sqlval.KindInt, func(a []sqlval.Value) sqlval.Value {
		return sqlval.Int(int64(dateOf(a[0]).Year()))
	}, false},
	"MONTH": {1, 1, sqlval.KindInt, func(a []sqlval.Value) sqlval.Value {
		return sqlval.Int(int64(dateOf(a[0]).Month()))
	}, false},
	"DAY": {1, 1, sqlval.KindInt, func(a []sqlval.Value) sqlval.Value {
		return sqlval.Int(int64(dateOf(a[0]).Day()))
	}, false},
	// COALESCE returns the first non-NULL argument.
	"COALESCE": {1, 16, sqlval.KindNull, func(a []sqlval.Value) sqlval.Value {
		for _, v := range a {
			if !v.IsNull() {
				return v
			}
		}
		return sqlval.Null()
	}, true},
	// NULLIF(a, b) is NULL when a = b, else a.
	"NULLIF": {2, 2, sqlval.KindNull, func(a []sqlval.Value) sqlval.Value {
		if !a[0].IsNull() && !a[1].IsNull() && sqlval.Compare(a[0], a[1]) == 0 {
			return sqlval.Null()
		}
		return a[0]
	}, true},
}

func dateOf(v sqlval.Value) time.Time {
	return time.Unix(v.DateDays()*86400, 0).UTC()
}

// NewFuncCall resolves a builtin by name (case-insensitive), validating
// arity, and returns the call plus its result kind.
func NewFuncCall(name string, args []Expr) (FuncCall, sqlval.Kind, error) {
	up := strings.ToUpper(name)
	b, ok := builtins[up]
	if !ok {
		return FuncCall{}, 0, fmt.Errorf("expr: unknown function %q", name)
	}
	if len(args) < b.minArgs || len(args) > b.maxArgs {
		return FuncCall{}, 0, fmt.Errorf("expr: %s takes %d..%d arguments, got %d",
			up, b.minArgs, b.maxArgs, len(args))
	}
	return FuncCall{FuncName: up, Args: args, impl: b.impl, keepNulls: b.keepNulls}, b.kind, nil
}

// Eval implements Expr.
func (f FuncCall) Eval(row schema.Row) sqlval.Value {
	vals := make([]sqlval.Value, len(f.Args))
	for i, a := range f.Args {
		vals[i] = a.Eval(row)
		if vals[i].IsNull() && !f.keepNulls {
			return sqlval.Null()
		}
	}
	return f.impl(vals)
}

// String implements Expr.
func (f FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.FuncName + "(" + strings.Join(parts, ", ") + ")"
}
