package exec

import (
	"fmt"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// TestArenaRowsAcrossSlabs carves rows across several slab changes: every
// row comes out zeroed at full capacity, so appending to one reallocates it
// and leaves its neighbours, in the same slab or the next, untouched.
func TestArenaRowsAcrossSlabs(t *testing.T) {
	const w = 3
	var a rowArena
	rows := make([]schema.Row, 4*arenaFirstRows+1)
	for i := range rows {
		r := a.row(w)
		if len(r) != w || cap(r) != w {
			t.Fatalf("row %d: len %d cap %d, want %d and %d", i, len(r), cap(r), w, w)
		}
		for j, v := range r {
			if !v.IsNull() {
				t.Fatalf("row %d col %d = %v, want a zeroed (NULL) value", i, j, v)
			}
		}
		for j := range r {
			r[j] = sqlval.Int(int64(i*w + j))
		}
		rows[i] = r
	}
	for _, r := range rows {
		grown := append(r, sqlval.Int(-1))
		grown[0] = sqlval.Int(-2)
	}
	for i, r := range rows {
		for j, v := range r {
			if want := sqlval.Int(int64(i*w + j)); sqlval.Compare(v, want) != 0 {
				t.Fatalf("row %d col %d = %v after appending to its neighbours, want %v", i, j, v, want)
			}
		}
	}
}

// TestUnderestimatedPlansReturnEveryRow runs every corpus plan with
// each node's estimate at one row, so every buffer sized from the plan is
// sized from 2·est, far below the rows that pass through it. The bulk run
// must still return the exact run's rows and reach its final ledger.
func TestUnderestimatedPlansReturnEveryRow(t *testing.T) {
	underestimated := func(build func() Operator) Operator {
		op := build()
		Walk(op, func(o Operator) { o.SetEstimatedCard(1) })
		return op
	}
	for _, tc := range batchPlans() {
		for _, bs := range []int{0, 3, 64} {
			t.Run(fmt.Sprintf("%s/bs=%d", tc.name, bs), func(t *testing.T) {
				exactOp := underestimated(tc.build)
				exactCtx := NewCtx()
				want, err := runExact(exactCtx, exactOp)
				if err != nil {
					t.Fatal(err)
				}
				op := underestimated(tc.build)
				if got := capHint(op); got > 2 {
					t.Fatalf("capHint = %d, want the estimate's 2", got)
				}
				ctx := NewCtx()
				ctx.BatchSize = bs
				got, err := RunBatch(ctx, op)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("rows: bulk %d, exact %d", len(got), len(want))
				}
				for i := range got {
					if !rowsEqual(got[i], want[i]) {
						t.Fatalf("row %d: bulk %v, exact %v", i, got[i], want[i])
					}
				}
				if gc, wc := ctx.Calls(), exactCtx.Calls(); gc != wc {
					t.Errorf("Calls: bulk %d, exact %d", gc, wc)
				}
				gs, ws := finalSnapshots(op), finalSnapshots(exactOp)
				for i := range gs {
					if gs[i] != ws[i] {
						t.Errorf("node %d final snapshot: bulk %+v, exact %+v", i, gs[i], ws[i])
					}
				}
			})
		}
	}
}

// TestZeroBoundPlanAllocatesNoSlab runs a projection over an empty table: its
// row bound is 0, so neither the result nor the projection's child batch
// reserves a single row header.
func TestZeroBoundPlanAllocatesNoSlab(t *testing.T) {
	sc := NewScan(relOf("empty", []string{"a"}, nil))
	p := NewProject(sc, []expr.Expr{col(sc, "empty", "a")}, []string{"a"}, []sqlval.Kind{sqlval.KindInt})
	if b := PlanRowBounds(p); b.UB != 0 {
		t.Fatalf("row bound %+v, want UB 0", b)
	}
	rows, err := RunBatch(NewCtx(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 || cap(rows) != 0 {
		t.Errorf("result len %d cap %d, want no slab", len(rows), cap(rows))
	}
	if c := cap(p.in.Rows); c != 0 {
		t.Errorf("child batch cap %d, want no slab", c)
	}
	if p.arena.buf != nil {
		t.Errorf("arena holds a %d-value slab, want none", len(p.arena.buf))
	}
}

// TestChildBatchReservedFromBound checks that a streaming operator's child
// batch is sized once from what the child can deliver: 500 headers for a
// 500-row scan pulled 1 024 rows at a time, not a buffer doubled up from
// zero, and one header per pull in the exact regime.
func TestChildBatchReservedFromBound(t *testing.T) {
	for _, exact := range []bool{false, true} {
		big := relOf("big", []string{"k"}, nil)
		for i := int64(0); i < 500; i++ {
			big.Append(schema.Row{sqlval.Int(i)})
		}
		sc := NewScan(big)
		p := NewProject(sc, []expr.Expr{col(sc, "big", "k")}, []string{"k"}, []sqlval.Kind{sqlval.KindInt})
		agg := NewStreamAgg(p, nil, nil, nil, []expr.Agg{{Kind: expr.AggCountStar, Name: "n"}})
		run, want := RunBatch, 500
		if exact {
			run, want = runExact, 1
		}
		if _, err := run(NewCtx(), agg); err != nil {
			t.Fatal(err)
		}
		if got := cap(p.in.Rows); got != want {
			t.Errorf("exact=%v: Project's child batch cap %d, want %d", exact, got, want)
		}
		if got := cap(agg.in.Rows); got != want {
			t.Errorf("exact=%v: StreamAgg's child batch cap %d, want %d", exact, got, want)
		}
	}
}
