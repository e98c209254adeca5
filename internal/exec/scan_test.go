package exec

import (
	"path/filepath"
	"reflect"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// seqRel is an n-row relation (a, b) = (i, i mod 7).
func seqRel(name string, n int) *schema.Relation {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	return relOf(name, []string{"a", "b"}, rows)
}

// TestStoreScanNarrowed: a scan told which columns the plan reads emits
// exactly those columns of exactly the rows the full-width scan emits, binds
// its predicate against the narrowed schema, and — row engine or batch,
// weighted read units included — counts, credits and bounds what the
// full-width scan does. Over an in-memory relation the list is ignored.
func TestStoreScanNarrowed(t *testing.T) {
	rel := seqRel("r", 4000) // (a, b) = (i, i mod 7)
	path := filepath.Join(t.TempDir(), "r.heap")
	if err := pager.WriteRelation(path, rel); err != nil {
		t.Fatal(err)
	}
	hf, err := pager.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	// A fresh two-frame pool per scan: every page is a physical read.
	scan := func(cols []int) *Scan {
		pr := pager.NewPagedRelation(hf, pager.NewPool(2))
		pr.SetReadCost(2)
		s := NewStoreScan(pr, cols)
		s.Pred = expr.Compare(expr.LT, expr.NewCol(s.Schema(), "", "b"), expr.Literal(sqlval.Int(3)))
		return s
	}
	if got := scan([]int{1}).Schema().String(); got != "(r.b BIGINT)" {
		t.Fatalf("narrowed schema = %s, want (r.b BIGINT)", got)
	}
	for _, run := range []struct {
		name string
		fn   func(*Ctx, Operator) ([]schema.Row, error)
	}{{"row", runExact}, {"batch", RunBatch}} {
		full, narrow := scan(nil), scan([]int{1})
		fullCtx, narrowCtx := NewCtx(), NewCtx()
		want, err := run.fn(fullCtx, full)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run.fn(narrowCtx, narrow)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: narrowed scan delivered %d rows, full-width %d", run.name, len(got), len(want))
		}
		for i, row := range want {
			if !reflect.DeepEqual(got[i], schema.Row{row[1]}) {
				t.Fatalf("%s: row %d = %v, want (%v)", run.name, i, got[i], row[1])
			}
		}
		if narrowCtx.Calls() != fullCtx.Calls() || fullCtx.Calls() <= 4000 {
			t.Errorf("%s: narrowed scan counted %d calls, full-width %d (4000 rows plus read units)",
				run.name, narrowCtx.Calls(), fullCtx.Calls())
		}
		if g, w := NodeSnapshot(narrow), NodeSnapshot(full); g != w {
			t.Errorf("%s: narrowed scan's ledger slot %+v, full-width %+v", run.name, g, w)
		}
		if g, w := narrow.FinalBounds(nil), full.FinalBounds(nil); g != w {
			t.Errorf("%s: narrowed scan's bounds %+v, full-width %+v", run.name, g, w)
		}
	}

	if s := NewStoreScan(rel, []int{1}); s.Schema() != rel.Schema() {
		t.Errorf("in-memory scan's schema = %s, want the relation's own", s.Schema())
	}
}
