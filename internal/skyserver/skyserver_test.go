package skyserver

import (
	"fmt"
	"testing"

	"sqlprogress/internal/coretest"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
)

func TestGenerateShape(t *testing.T) {
	cat := Generate(Config{PhotoObj: 5000, Seed: 1})
	if got := cat.Cardinality("photoobj"); got != 5000 {
		t.Errorf("photoobj = %d", got)
	}
	if got := cat.Cardinality("specobj"); got != 500 {
		t.Errorf("specobj = %d", got)
	}
	if got := cat.Cardinality("neighbors"); got != 10000 {
		t.Errorf("neighbors = %d", got)
	}
	if cat.Cardinality("field") < 20 {
		t.Errorf("field = %d", cat.Cardinality("field"))
	}
	if !cat.IsUnique("photoobj", "objid") {
		t.Error("photoobj.objid should be a key")
	}
}

func TestGenerateDefaultsAndDeterminism(t *testing.T) {
	a := Generate(Config{Seed: 3})
	if a.Cardinality("photoobj") != 40000 {
		t.Errorf("default photoobj = %d", a.Cardinality("photoobj"))
	}
	b := Generate(Config{Seed: 3})
	ra, _ := a.Relation("specobj")
	rb, _ := b.Relation("specobj")
	for i := 0; i < len(ra.Rows); i += 53 {
		if ra.Rows[i][2].AsString() != rb.Rows[i][2].AsString() {
			t.Fatal("generation must be deterministic")
		}
	}
}

func TestAllQueriesExecuteAndMuSmall(t *testing.T) {
	cat := Generate(Config{PhotoObj: 8000, Seed: 5})
	for _, q := range Queries() {
		q := q
		t.Run(q.Desc, func(t *testing.T) {
			op, err := BuildQuery(cat, q.Num)
			if err != nil {
				t.Fatal(err)
			}
			ctx := exec.NewCtx()
			if _, err := exec.RunBatch(ctx, op); err != nil {
				t.Fatalf("query %d: %v", q.Num, err)
			}
			if ctx.Calls() == 0 {
				t.Fatal("no work performed")
			}
			mu := core.Mu(op)
			// Table 3: mu in [1.008, 1.79] for this suite.
			if mu < 1 || mu > 2.5 {
				t.Errorf("query %d: mu = %.3f outside the plausible band", q.Num, mu)
			}
		})
	}
}

func TestBuildQueryUnknown(t *testing.T) {
	cat := Generate(Config{PhotoObj: 100, Seed: 1})
	if _, err := BuildQuery(cat, 1); err == nil {
		t.Error("query 1 is not in the long-running suite; expect error")
	}
}

func TestProgressInvariantsAllSkyServerQueries(t *testing.T) {
	cat := Generate(Config{PhotoObj: 6000, Seed: 5})
	for _, q := range Queries() {
		op, err := BuildQuery(cat, q.Num)
		if err != nil {
			t.Fatal(err)
		}
		coretest.CheckProgressInvariants(t, fmt.Sprintf("skyserver-%d", q.Num), op, 41)
	}
}
