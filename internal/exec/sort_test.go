package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// TestSortLimit holds a Sort told of the Top(k) above it to the stable sort
// it stands for: the rows Top emits are slices.SortStableFunc(input)[:k],
// ties in arrival order, and every count is that of the unbounded sort —
// ascending and descending, several keys, heavy ties, k around n, both
// engines.
func TestSortLimit(t *testing.T) {
	const n = 200
	r := rand.New(rand.NewSource(7))
	rel := relOf("r", []string{"a", "b", "id"}, nil)
	for i := int64(0); i < n; i++ {
		rel.Append(schema.Row{sqlval.Int(r.Int63n(4)), sqlval.Int(r.Int63n(50)), sqlval.Int(i)})
	}
	plan := func(desc []bool, k, limit int64) (Operator, *Sort) {
		sc := NewScan(rel)
		keys := make([]SortKey, len(desc))
		for i, d := range desc {
			keys[i] = SortKey{Expr: col(sc, "r", []string{"a", "b"}[i]), Desc: d}
		}
		s := NewSort(sc, keys)
		s.SetLimit(limit)
		return NewTop(s, k), s
	}
	for _, desc := range [][]bool{{false}, {true}, {false, true}, {true, false}, {true, true}} {
		for _, k := range []int64{1, 10, n - 1, n, n + 1} {
			_, ref := plan(desc, k, 0)
			sorted := slices.Clone(rel.Rows)
			slices.SortStableFunc(sorted, ref.compare)
			want := sorted[:min(k, n)]
			for _, run := range []func(*Ctx, Operator) ([]schema.Row, error){runExact, RunBatch} {
				label := fmt.Sprintf("desc=%v k=%d", desc, k)
				full, _ := plan(desc, k, 0)
				fullCtx := NewCtx()
				if _, err := run(fullCtx, full); err != nil {
					t.Fatal(err)
				}
				top, s := plan(desc, k, k)
				ctx := NewCtx()
				got, err := run(ctx, top)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
				}
				for i := range want {
					if !sameValue(got[i][2], want[i][2]) {
						t.Fatalf("%s: row %d is id %v, the stable sort has id %v", label, i, got[i][2], want[i][2])
					}
				}
				if ctx.Calls() != fullCtx.Calls() || NodeSnapshot(s) != NodeSnapshot(full.Children()[0]) {
					t.Errorf("%s: calls %d, sort node %+v; unbounded sort: %d, %+v",
						label, ctx.Calls(), NodeSnapshot(s), fullCtx.Calls(), NodeSnapshot(full.Children()[0]))
				}
			}
		}
	}
}
