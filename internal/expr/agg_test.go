package expr

import (
	"testing"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// opaque hides an expression behind a type that is not Col, so that an
// AggState built on it evaluates its argument through Expr.Eval.
type opaque struct{ e Expr }

func (o opaque) Eval(row schema.Row) sqlval.Value { return o.e.Eval(row) }
func (o opaque) String() string                   { return o.e.String() }

// TestAggStateColArgMatchesExpr holds an aggregate over a bare column, which
// AggState reads by row index, to the same aggregate over the same column
// read through Expr.Eval, over every prefix of the column.
func TestAggStateColArgMatchesExpr(t *testing.T) {
	null := sqlval.Null()
	columns := []struct {
		name string
		vals []sqlval.Value
	}{
		{"empty", nil},
		{"all-null", []sqlval.Value{null, null}},
		{"int", []sqlval.Value{sqlval.Int(3), null, sqlval.Int(5), sqlval.Int(-2)}},
		{"int-then-float", []sqlval.Value{sqlval.Int(2), null, sqlval.Int(7), sqlval.Float(1.5), sqlval.Int(4)}},
		{"float-then-int", []sqlval.Value{sqlval.Float(0.25), sqlval.Int(9), null, sqlval.Float(-3)}},
		{"date", []sqlval.Value{sqlval.Date(10), null, sqlval.Date(3), sqlval.Date(12)}},
		{"string", []sqlval.Value{sqlval.String("b"), null, sqlval.String("a"), sqlval.String("c")}},
	}
	// The aggregated column sits between two others, so a read of the wrong
	// index sees non-null values that differ from it.
	col := Col{Index: 1}
	for _, c := range columns {
		rows := make([]schema.Row, len(c.vals))
		for i, v := range c.vals {
			rows[i] = schema.Row{sqlval.Int(int64(100 + i)), v, sqlval.Int(int64(-100 - i))}
		}
		kinds := []AggKind{AggCount, AggMin, AggMax}
		if c.name != "string" {
			kinds = append(kinds, AggSum, AggAvg)
		}
		for _, k := range kinds {
			byCol, byExpr := Agg{Kind: k, Arg: col}, Agg{Kind: k, Arg: opaque{col}}
			for n := 0; n <= len(rows); n++ {
				if got, want := aggregate(byCol, rows[:n]), aggregate(byExpr, rows[:n]); !sameValue(got, want) {
					t.Errorf("%s %s over %d rows: column read %v, Expr read %v", c.name, k, n, got, want)
				}
			}
		}
	}
}

// sameValue reports whether a and b have the same kind and content, which
// String renders exactly. reflect.DeepEqual would compare where a string's
// bytes live, not what they hold.
func sameValue(a, b sqlval.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String()
}

func aggregate(a Agg, rows []schema.Row) sqlval.Value {
	s := NewAggState(a)
	for _, r := range rows {
		s.Add(r)
	}
	return s.Result()
}
