package catalog

import (
	"strings"
	"testing"

	"sqlprogress/internal/index"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
	"sqlprogress/internal/stats"
)

func sampleRelation(name string, n int64) *schema.Relation {
	rel := schema.NewRelation(name, schema.New(
		schema.Column{Name: "id", Type: sqlval.KindInt},
		schema.Column{Name: "v", Type: sqlval.KindInt},
	))
	for i := int64(0); i < n; i++ {
		rel.Append(schema.Row{sqlval.Int(i), sqlval.Int(i % 7)})
	}
	return rel
}

func TestAddAndLookup(t *testing.T) {
	c := New()
	c.AddRelation(sampleRelation("orders", 10))
	rel, err := c.Relation("ORDERS") // case-insensitive
	if err != nil || rel.Cardinality() != 10 {
		t.Fatalf("Relation(ORDERS) = %v, %v", rel, err)
	}
	if c.Cardinality("orders") != 10 {
		t.Errorf("Cardinality = %d", c.Cardinality("orders"))
	}
	if c.Cardinality("nope") != -1 {
		t.Errorf("unknown table cardinality = %d, want -1", c.Cardinality("nope"))
	}
	if _, err := c.Relation("nope"); err == nil || !strings.Contains(err.Error(), "orders") {
		t.Errorf("error should list known tables, got %v", err)
	}
}

func TestMustRelationPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.MustRelation("ghost")
}

func TestStatsBuiltOnAdd(t *testing.T) {
	c := New()
	c.AddRelation(sampleRelation("t", 100))
	ts := c.Stats("t")
	if ts == nil || ts.RowCount != 100 {
		t.Fatalf("stats = %+v", ts)
	}
	if ts.Histogram(0) == nil {
		t.Error("histogram on column 0 missing")
	}
}

func TestIndexesBuiltAndCached(t *testing.T) {
	c := New()
	c.AddRelation(sampleRelation("t", 50))
	o1, err := c.BuildOrderedIndex("t", "v")
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := c.BuildOrderedIndex("T", "V")
	if o1 != o2 {
		t.Error("ordered index should be cached")
	}
	three := sqlval.Int(3)
	if r := o1.SeekRange(&three, &three, true, true); r.End-r.Start != 7 { // i%7==3 for i in 0..49: 3,10,...,45
		t.Errorf("seek(3) = %d rows", r.End-r.Start)
	}
	if c.OrderedIndex("t", "v") != o1 {
		t.Error("accessor should return the built index")
	}
	if c.OrderedIndex("t", "id") != nil {
		t.Error("unbuilt index should be nil")
	}
}

func TestIndexErrors(t *testing.T) {
	c := New()
	c.AddRelation(sampleRelation("t", 5))
	if _, err := c.BuildOrderedIndex("ghost", "v"); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := c.BuildOrderedIndex("t", "ghostcol"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestReplaceRelationDropsIndexes(t *testing.T) {
	c := New()
	c.AddRelation(sampleRelation("t", 5))
	if _, err := c.BuildOrderedIndex("t", "v"); err != nil {
		t.Fatal(err)
	}
	c.AddRelation(sampleRelation("t", 8))
	if c.OrderedIndex("t", "v") != nil {
		t.Error("replacing a relation must drop its indexes")
	}
	if c.Cardinality("t") != 8 {
		t.Errorf("cardinality after replace = %d", c.Cardinality("t"))
	}
}

func TestConstraints(t *testing.T) {
	c := New()
	c.AddRelation(sampleRelation("parent", 5))
	c.AddRelation(sampleRelation("child", 20))
	c.DeclareForeignKey(ForeignKey{
		ChildTable: "child", ChildColumn: "v",
		ParentTable: "parent", ParentColumn: "id",
	})
	if !c.IsUnique("parent", "id") {
		t.Error("FK parent column should be unique")
	}
	if !c.JoinIsLinear("child", "v", "parent", "id") {
		t.Error("FK join should be linear")
	}
	if !c.JoinIsLinear("parent", "id", "child", "v") {
		t.Error("linearity is symmetric in argument order")
	}
	if c.JoinIsLinear("child", "v", "child", "id") {
		t.Error("join between non-unique columns should not be linear")
	}
	if len(c.ForeignKeys()) != 1 {
		t.Errorf("ForeignKeys = %v", c.ForeignKeys())
	}
}

func TestTableNamesSorted(t *testing.T) {
	c := New()
	c.AddRelation(sampleRelation("zeta", 1))
	c.AddRelation(sampleRelation("alpha", 1))
	names := c.TableNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestDropTable(t *testing.T) {
	c := New()
	c.AddRelation(sampleRelation("parent", 5))
	c.AddRelation(sampleRelation("child", 10))
	c.DeclareForeignKey(ForeignKey{
		ChildTable: "child", ChildColumn: "v",
		ParentTable: "parent", ParentColumn: "id",
	})
	if _, err := c.BuildOrderedIndex("parent", "id"); err != nil {
		t.Fatal(err)
	}
	if !c.DropTable("PARENT") {
		t.Fatal("drop should succeed")
	}
	if _, err := c.Relation("parent"); err == nil {
		t.Error("relation should be gone")
	}
	if c.Stats("parent") != nil || c.OrderedIndex("parent", "id") != nil {
		t.Error("stats/indexes should be gone")
	}
	if len(c.ForeignKeys()) != 0 {
		t.Errorf("FKs referencing the table should be dropped: %v", c.ForeignKeys())
	}
	if c.IsUnique("parent", "id") {
		t.Error("unique declarations should be gone")
	}
	if c.DropTable("ghost") {
		t.Error("dropping a missing table should report false")
	}
}

func TestSetStats(t *testing.T) {
	c := New()
	c.AddRelation(sampleRelation("t", 100))
	fresh := c.Stats("t")
	if fresh == nil {
		t.Fatal("stats missing after AddRelation")
	}

	degraded := stats.Degrade(fresh, stats.Absent, 0)
	c.SetStats("T", degraded) // case-insensitive key
	if got := c.Stats("t"); got != degraded {
		t.Fatalf("Stats after SetStats = %p, want the installed synopsis %p", got, degraded)
	}
	if c.Stats("t").Histogram(0) != nil {
		t.Error("absent-degraded synopsis should have no histograms")
	}

	c.SetStats("t", nil)
	if c.Stats("t") != nil {
		t.Error("SetStats(nil) should remove the synopsis")
	}
}

// OrderedIndex returns the ordered index on table.column if one has been
// built.
func (c *Catalog) OrderedIndex(table, column string) *index.Ordered {
	return c.orderIdx[key(table)][key(column)]
}
