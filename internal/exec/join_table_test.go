package exec

import (
	"fmt"
	"math"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

var (
	vInt   = sqlval.Int
	vFloat = sqlval.Float
	vStr   = sqlval.String
	vNull  = sqlval.Null()
)

// keyCols is the join key of the table tests: the first n columns, bare.
func keyCols(n int) []expr.Expr {
	keys := make([]expr.Expr, n)
	for i := range keys {
		keys[i] = expr.Col{Index: i}
	}
	return keys
}

// tagged appends each row's position as a last column, so a lookup result
// names the build rows it holds and their order.
func tagged(keys ...[]sqlval.Value) []schema.Row {
	rows := make([]schema.Row, len(keys))
	for i, k := range keys {
		rows[i] = append(append(schema.Row{}, k...), vInt(int64(i)))
	}
	return rows
}

func tagsOf(rows []schema.Row) string {
	tags := make([]int64, len(rows))
	for i, r := range rows {
		tags[i] = r[len(r)-1].AsInt()
	}
	return fmt.Sprint(tags)
}

// tablesOver builds the same rows two ways: over the usual slots, and into
// one slot for everything — where every bucket that matches at all is
// mixed, so lookups take the match buffer.
func tablesOver(build []schema.Row, nkeys int) map[string]*joinTable {
	tbl := &joinTable{buildKeys: keyCols(nkeys), probeKeys: keyCols(nkeys)}
	tbl.build(append([]schema.Row(nil), build...))
	one := &joinTable{buildKeys: keyCols(nkeys), probeKeys: keyCols(nkeys)}
	src := append([]schema.Row(nil), build...)
	words := one.keyWords(src)
	one.src = src[:len(words)]
	one.fill(words, 1)
	return map[string]*joinTable{"slots": tbl, "one-slot": one}
}

// TestJoinTableLookup holds lookup to the definition it replaces: the build
// rows whose keys all sqlval.Compare equal to the probe's, none of them NULL,
// in build order — on the integer path, the hashed path and through the
// match buffer.
func TestJoinTableLookup(t *testing.T) {
	const two53 = int64(1) << 53
	v := func(vs ...sqlval.Value) []sqlval.Value { return vs }
	intBuild := tagged(
		v(vInt(7)), v(vInt(3)), v(vNull), v(vInt(7)), v(vInt(5)), v(vInt(7)), v(vInt(3)), v(vInt(0)),
		v(vInt(two53)), v(vInt(two53+1)), v(vInt(-two53)), v(vInt(-two53-1)), v(vInt(two53+2)),
		v(vInt(math.MaxInt64)), v(vInt(math.MaxInt64-1)), v(vInt(math.MinInt64)), v(vInt(1)),
	)
	intProbes := [][]sqlval.Value{
		v(vInt(7)), v(vInt(3)), v(vInt(4)), v(vNull), v(vInt(two53 + 1)), v(vInt(math.MinInt64)),
		v(vFloat(5.0)), v(vFloat(5.5)), v(vFloat(-0.0)), v(vFloat(0.5)), v(vFloat(1e-300)),
		v(vFloat(float64(two53))), v(vFloat(-float64(two53))), v(vFloat(float64(two53 + 2))),
		v(vFloat(float64(two53 - 1))), v(vFloat(math.Ldexp(1, 63))), v(vFloat(-math.Ldexp(1, 63))),
		v(vFloat(math.NaN())), v(vFloat(math.Inf(1))), v(vFloat(math.Inf(-1))), v(vFloat(1e300)),
		v(sqlval.Date(5)), v(sqlval.Bool(true)), v(vStr("7")),
	}
	cases := []struct {
		name   string
		nkeys  int
		exact  bool
		build  []schema.Row
		probes [][]sqlval.Value
	}{
		{"int", 1, true, intBuild, intProbes},
		// The same keys with one float or one string among them: no fast
		// path, same answers (Float(3.0) now also sits on the build side).
		{"int-then-float", 1, false, append(tagged(v(vInt(3)), v(vNull), v(vFloat(3.0)), v(vInt(3)), v(vFloat(2.5))), intBuild...),
			append(intProbes, v(vFloat(3.0)), v(vFloat(2.5)))},
		{"int-then-string", 1, false, append(tagged(v(vNull), v(vInt(7)), v(vStr("7"))), intBuild...), intProbes},
		{"float-first", 1, false, tagged(v(vFloat(1)), v(vInt(1)), v(vInt(2))), [][]sqlval.Value{v(vInt(1)), v(vFloat(2)), v(vInt(3))}},
		{"string", 1, false, tagged(v(vStr("a")), v(vStr("b")), v(vStr("a")), v(vNull), v(vStr(""))),
			[][]sqlval.Value{v(vStr("a")), v(vStr("b")), v(vStr("")), v(vStr("c")), v(vNull), v(vInt(1))}},
		{"two-columns", 2, false, tagged(v(vInt(1), vStr("x")), v(vInt(1), vStr("y")), v(vInt(1), vNull), v(vNull, vStr("x")), v(vInt(1), vStr("x")), v(vInt(2), vStr("x"))),
			[][]sqlval.Value{v(vInt(1), vStr("x")), v(vFloat(1), vStr("y")), v(vInt(2), vStr("y")), v(vInt(1), vNull), v(vNull, vNull), v(vInt(2), vStr("x"))}},
		{"empty", 1, true, nil, [][]sqlval.Value{v(vInt(1)), v(vNull), v(vFloat(1e300))}},
		{"all-null", 1, true, tagged(v(vNull), v(vNull)), [][]sqlval.Value{v(vInt(1)), v(vNull)}},
	}
	for _, c := range cases {
		for name, tbl := range tablesOver(c.build, c.nkeys) {
			if tbl.exact != c.exact {
				t.Errorf("%s/%s: exact = %v, want %v", c.name, name, tbl.exact, c.exact)
			}
			var buf []schema.Row
			for _, probe := range c.probes {
				var want []schema.Row
				for _, b := range c.build {
					if keysEqual(tbl.probeKeys, probe, tbl.buildKeys, b) {
						want = append(want, b)
					}
				}
				if got := tbl.lookup(probe, &buf); tagsOf(got) != tagsOf(want) {
					t.Errorf("%s/%s: lookup(%v) = rows %s, want %s", c.name, name, probe, tagsOf(got), tagsOf(want))
				}
			}
		}
	}
}

// TestJoinTableBucketIsReturnedWhole: when every row of the bucket matches,
// lookup hands back the table's own storage and leaves the buffer alone.
func TestJoinTableBucketIsReturnedWhole(t *testing.T) {
	tbl := &joinTable{buildKeys: keyCols(1), probeKeys: keyCols(1)}
	tbl.build(tagged([]sqlval.Value{vInt(9)}, []sqlval.Value{vInt(9)}))
	var buf []schema.Row
	got := tbl.lookup(schema.Row{vInt(9)}, &buf)
	if tagsOf(got) != "[0 1]" || buf != nil || &got[0] != &tbl.rows[0] {
		t.Fatalf("lookup = %s (buf %v): want the bucket itself", tagsOf(got), buf)
	}
}

// TestJoinTableJoinsAgree runs the hash join, in both pull regimes, over
// inputs with duplicate, NULL, float and string keys and holds every mode to
// a nested-loop reference: in particular an anti join emits the NULL-keyed
// probe rows and a left outer join pads them.
func TestJoinTableJoinsAgree(t *testing.T) {
	mixed := func(name, key string, keys ...sqlval.Value) *schema.Relation {
		rel := relOf(name, []string{key, "id"}, nil)
		for i, k := range keys {
			rel.Append(schema.Row{k, vInt(int64(i))})
		}
		return rel
	}
	var probeKeys []sqlval.Value
	for i := 0; i < 300; i++ {
		switch i % 10 {
		case 0:
			probeKeys = append(probeKeys, vNull)
		case 1:
			probeKeys = append(probeKeys, vFloat(float64(i%17)))
		case 2:
			probeKeys = append(probeKeys, vFloat(float64(i%17)+0.5))
		case 3:
			probeKeys = append(probeKeys, vStr(fmt.Sprint(i%17)))
		default:
			probeKeys = append(probeKeys, vInt(int64(i%29)))
		}
	}
	intBuild := []sqlval.Value{vNull}
	for i := 0; i < 70; i++ {
		intBuild = append(intBuild, vInt(int64(i%23)))
	}
	builds := map[string][]sqlval.Value{
		"int-build":   intBuild,
		"mixed-build": append(append([]sqlval.Value{}, intBuild...), vStr("3"), vFloat(4), vStr("3"), vFloat(6.5)),
		"empty-build": nil,
	}
	probe := mixed("p", "a", probeKeys...)
	for bname, bkeys := range builds {
		build := mixed("b", "k", bkeys...)
		for _, mode := range []JoinMode{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
			var want []schema.Row
			for _, p := range probe.Rows {
				matched := false
				for _, b := range build.Rows {
					if !p[0].IsNull() && !b[0].IsNull() && sqlval.Compare(p[0], b[0]) == 0 {
						matched = true
						if mode == InnerJoin || mode == LeftOuterJoin {
							want = append(want, append(append(schema.Row{}, p...), b...))
						}
					}
				}
				switch {
				case mode == LeftOuterJoin && !matched:
					want = append(want, append(append(schema.Row{}, p...), vNull, vNull))
				case mode == SemiJoin && matched, mode == AntiJoin && !matched:
					want = append(want, p)
				}
			}
			for _, batch := range []bool{false, true} {
				run := runExact
				if batch {
					run = RunBatch
				}
				got, err := run(NewCtx(), serialJoinOf(probe, build, mode))
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, got, want, fmt.Sprintf("%s mode=%v batch=%v", bname, mode, batch))
			}
		}
	}
}

// TestJoinTableBuildBufferSizedOnce: the build side is drained into a buffer
// sized from the build child's bound, not grown by append — and not floored
// at a batch, so a five-row build side holds five row headers.
func TestJoinTableBuildBufferSizedOnce(t *testing.T) {
	for _, n := range []int64{5, 5000} {
		build := relOf("b", []string{"k", "y"}, nil)
		for i := int64(0); i < n; i++ {
			build.Append(schema.Row{vInt(i), vInt(i)})
		}
		j := serialJoinOf(relOf("p", []string{"a", "x"}, nil), build, InnerJoin)
		EnsureLedger(j)
		if err := j.Open(NewCtx()); err != nil {
			t.Fatal(err)
		}
		if got := int64(cap(j.buildRows)); got != n {
			t.Errorf("build of %d rows: buffer capacity %d", n, got)
		}
		j.Close()
	}
}

func serialJoinOf(probe, build *schema.Relation, mode JoinMode) *HashJoin {
	sp := NewScan(probe)
	sb := NewScan(build)
	return NewHashJoin(sb, sp,
		[]expr.Expr{col(sb, "b", "k")}, []expr.Expr{col(sp, "p", "a")}, mode)
}
