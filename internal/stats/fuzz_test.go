package stats

import (
	"math"
	"strings"
	"testing"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// kindsColumns decodes fuzz input into a relation of one to three columns
// and a bucket budget. data[0] picks the budget and the column count;
// data[1] fixes every value's kind (Int, Float, Date, Bool, String), allows
// Int and Float together, or lets each value pick its own. Every following
// pair (a, b) is a NULL, a run repeating the last value, or a value of the
// chosen kind with payload b. Values go to the columns round-robin, and the
// last row is padded with NULLs.
func kindsColumns(data []byte) (*schema.Relation, int) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	maxBuckets := 1 + int(at(0)%16)
	ncol := 1 + int(at(0)/16)%3
	mode := at(1) % 7
	var vals []sqlval.Value
	for i := 2; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		switch {
		case a%8 == 0:
			vals = append(vals, sqlval.Null())
			continue
		case a%8 == 1 && len(vals) > 0:
			for n := int(b % 32); n > 0; n-- {
				vals = append(vals, vals[len(vals)-1])
			}
			continue
		}
		kind := mode
		switch mode {
		case 5:
			kind = a % 2
		case 6:
			kind = a % 5
		}
		vals = append(vals, kindValue(kind, b))
	}
	cols := make([]schema.Column, ncol)
	for i := range cols {
		cols[i] = schema.Column{Name: string(rune('a' + i)), Type: sqlval.KindInt}
	}
	rel := schema.NewRelation("fuzz", schema.New(cols...))
	for len(vals) > 0 {
		row := make(schema.Row, ncol)
		n := copy(row, vals)
		vals = vals[n:]
		rel.Append(row)
	}
	return rel, maxBuckets
}

// kindValue builds a value of kind 0 Int, 1 Float, 2 Date, 3 Bool or
// 4 String from payload b, with few distinct values per kind so runs form.
// Floats include NaN, ±0 and ±Inf, and integral values an Int can equal.
func kindValue(kind, b byte) sqlval.Value {
	switch kind {
	case 1:
		switch b % 8 {
		case 0:
			return sqlval.Float(math.NaN())
		case 1:
			return sqlval.Float(0)
		case 2:
			return sqlval.Float(math.Copysign(0, -1))
		case 3:
			return sqlval.Float(math.Inf(1))
		case 4:
			return sqlval.Float(math.Inf(-1))
		}
		x := float64(int8(b) >> 3) // Int's range: an Int can equal it
		if b%8 == 5 {
			x += 0.5
		}
		return sqlval.Float(x)
	case 2:
		return sqlval.Date(int64(b % 24))
	case 3:
		return sqlval.Bool(b%2 == 1)
	case 4:
		return sqlval.String(strings.Repeat(string(rune('a'+b%4)), int(b/4%4)))
	}
	return sqlval.Int(int64(int8(b) >> 3))
}

// FuzzHistogramKinds holds the generator, and BuildHistogram, to the
// reference builder on columns mixing NULLs, every kind, the float values
// that break a naive sort (NaN, ±0, ±Inf), heavy runs, and Int with Float
// in one column. The corpus under testdata/fuzz/FuzzHistogramKinds seeds
// each shape.
func FuzzHistogramKinds(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, maxBuckets := kindsColumns(data)
		for _, d := range DiffGenerated(rel, maxBuckets) {
			t.Error(d)
		}
	})
}
