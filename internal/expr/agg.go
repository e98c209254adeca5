package expr

import (
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// AggKind enumerates the supported aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	AggCountStar AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (k AggKind) String() string {
	return [...]string{"COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX"}[k]
}

// Agg describes one aggregate in an aggregation operator's output: the
// function and its argument expression (nil for COUNT(*)).
type Agg struct {
	Kind AggKind
	Arg  Expr
	// Name is the output column name ("sum_qty" etc).
	Name string
}

// String renders the aggregate for plan explanation.
func (a Agg) String() string {
	if a.Kind == AggCountStar {
		return "COUNT(*)"
	}
	return a.Kind.String() + "(" + a.Arg.String() + ")"
}

// OutputType returns the column kind the aggregate produces.
func (a Agg) OutputType() sqlval.Kind {
	switch a.Kind {
	case AggCountStar, AggCount:
		return sqlval.KindInt
	case AggAvg:
		return sqlval.KindFloat
	default:
		// SUM/MIN/MAX follow the argument; without full type inference we
		// report DOUBLE, which is how accumulation is carried out for SUM.
		return sqlval.KindFloat
	}
}

// AggState accumulates one aggregate over a stream of rows. SQL semantics:
// NULL arguments are ignored by all functions; COUNT(*) counts rows; an
// empty group yields NULL for all but COUNT/COUNT(*) (which yield 0).
type AggState struct {
	agg Agg
	// col is the row index of a bare-column argument, -1 for any other
	// argument. Add reads row[col] without the Expr call, which made a
	// grouped aggregate over wide in-memory rows about a quarter faster
	// (EXPERIMENTS.md).
	col   int
	n     int64 // non-null inputs seen (rows for COUNT(*))
	sumI  int64
	sumF  float64
	isInt bool // SUM accumulates exactly in int64 while all inputs are ints
	min   sqlval.Value
	max   sqlval.Value
}

// NewAggState returns a fresh accumulator for the aggregate.
func NewAggState(a Agg) *AggState {
	s := &AggState{agg: a, col: -1, isInt: true}
	if c, ok := a.Arg.(Col); ok {
		s.col = c.Index
	}
	return s
}

// Add folds one input row into the accumulator.
func (s *AggState) Add(row schema.Row) {
	if s.agg.Kind == AggCountStar {
		s.n++
		return
	}
	var v sqlval.Value
	if s.col >= 0 {
		v = row[s.col]
	} else {
		v = s.agg.Arg.Eval(row)
	}
	if v.IsNull() {
		return
	}
	s.n++
	switch s.agg.Kind {
	case AggCount:
		// counting non-nulls only
	case AggSum, AggAvg:
		if s.isInt && v.Kind() == sqlval.KindInt {
			s.sumI += v.AsInt()
		} else {
			if s.isInt {
				s.sumF = float64(s.sumI)
				s.isInt = false
			}
			s.sumF += v.AsFloat()
		}
	case AggMin:
		if s.n == 1 || sqlval.Compare(v, s.min) < 0 {
			s.min = v
		}
	case AggMax:
		if s.n == 1 || sqlval.Compare(v, s.max) > 0 {
			s.max = v
		}
	}
}

// Merge folds another accumulator of the same aggregate into s — the
// combine step of parallel pre-aggregation. The merge is exact: COUNT adds
// counts, SUM/AVG add sums (staying in int64 arithmetic while both partials
// did), MIN/MAX keep the extremum. Callers merge partials in a fixed worker
// order so float accumulation is deterministic run to run.
func (s *AggState) Merge(o *AggState) {
	switch s.agg.Kind {
	case AggCountStar, AggCount:
		s.n += o.n
	case AggSum, AggAvg:
		if s.isInt && o.isInt {
			s.sumI += o.sumI
		} else {
			if s.isInt {
				s.sumF = float64(s.sumI)
				s.isInt = false
			}
			of := o.sumF
			if o.isInt {
				of = float64(o.sumI)
			}
			s.sumF += of
		}
		s.n += o.n
	case AggMin:
		if o.n > 0 && (s.n == 0 || sqlval.Compare(o.min, s.min) < 0) {
			s.min = o.min
		}
		s.n += o.n
	case AggMax:
		if o.n > 0 && (s.n == 0 || sqlval.Compare(o.max, s.max) > 0) {
			s.max = o.max
		}
		s.n += o.n
	}
}

// Result returns the aggregate's final value.
func (s *AggState) Result() sqlval.Value {
	switch s.agg.Kind {
	case AggCountStar, AggCount:
		return sqlval.Int(s.n)
	case AggSum:
		if s.n == 0 {
			return sqlval.Null()
		}
		if s.isInt {
			return sqlval.Int(s.sumI)
		}
		return sqlval.Float(s.sumF)
	case AggAvg:
		if s.n == 0 {
			return sqlval.Null()
		}
		total := s.sumF
		if s.isInt {
			total = float64(s.sumI)
		}
		return sqlval.Float(total / float64(s.n))
	case AggMin:
		if s.n == 0 {
			return sqlval.Null()
		}
		return s.min
	default: // AggMax
		if s.n == 0 {
			return sqlval.Null()
		}
		return s.max
	}
}
