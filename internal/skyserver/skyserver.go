// Package skyserver provides a synthetic stand-in for the Sloan Digital Sky
// Survey "SkyServer" personal-edition database the paper measures in Table
// 3 (a real-life astronomical database with a suite of sample queries). The
// real data is not redistributable here, so this package generates an
// astronomy-shaped schema — a large photometric-object table, a smaller
// spectroscopic table, a wide neighbours table and field metadata — with
// zipfian-skewed classes and magnitudes, plus the seven long-running
// queries whose mu values Table 3 reports, re-expressed over this schema
// with the same plan shapes (scan-heavy filters feeding small aggregates).
package skyserver

import (
	"fmt"
	"math/rand"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Config controls generation.
type Config struct {
	// PhotoObj is the row count of the big photometric table (other tables
	// scale from it). The paper's 1 GB edition held a few million rows; the
	// default here is 40000.
	PhotoObj int64
	// Seed makes generation deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.PhotoObj <= 0 {
		c.PhotoObj = 40_000
	}
	return c
}

func intCol(n string) schema.Column   { return schema.Column{Name: n, Type: sqlval.KindInt} }
func floatCol(n string) schema.Column { return schema.Column{Name: n, Type: sqlval.KindFloat} }
func strCol(n string) schema.Column   { return schema.Column{Name: n, Type: sqlval.KindString} }

var classes = []string{"GALAXY", "STAR", "QSO", "UNKNOWN"}

// Generate builds the synthetic SkyServer catalog.
func Generate(cfg Config) *catalog.Catalog {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	cat := catalog.New()

	nPhoto := cfg.PhotoObj
	nField := nPhoto/200 + 1
	nSpec := nPhoto / 10
	nNeighbors := nPhoto * 2

	// field: survey stripes with quality flags.
	field := schema.NewRelation("field", schema.New(
		intCol("fieldid"), intCol("run"), intCol("camcol"), intCol("quality")))
	for i := int64(0); i < nField; i++ {
		field.Append(schema.Row{
			sqlval.Int(i), sqlval.Int(i / 6), sqlval.Int(i % 6),
			sqlval.Int(int64(1 + r.Intn(3))),
		})
	}

	// photoobj: the big table. Type and magnitudes are skewed (most objects
	// are faint galaxies), as in the survey.
	photo := schema.NewRelation("photoobj", schema.New(
		intCol("objid"), floatCol("ra"), floatCol("dec"), strCol("type"),
		floatCol("u"), floatCol("g"), floatCol("r"), floatCol("i"), floatCol("z"),
		intCol("fieldid"), intCol("status")))
	typeZipf := datagen.NewZipf(r, len(classes), 1.2)
	fieldZipf := datagen.NewZipf(r, int(nField), 1.0)
	for i := int64(0); i < nPhoto; i++ {
		base := 14 + r.Float64()*12 // magnitudes 14..26, faint-heavy
		photo.Append(schema.Row{
			sqlval.Int(i),
			sqlval.Float(r.Float64() * 360),
			sqlval.Float(r.Float64()*180 - 90),
			sqlval.String(classes[typeZipf.Next()]),
			sqlval.Float(base + r.Float64()*2),
			sqlval.Float(base + r.Float64()),
			sqlval.Float(base),
			sqlval.Float(base - r.Float64()*0.5),
			sqlval.Float(base - r.Float64()),
			sqlval.Int(fieldZipf.Next()),
			sqlval.Int(int64(r.Intn(16))),
		})
	}

	// specobj: spectra for a tenth of the objects.
	spec := schema.NewRelation("specobj", schema.New(
		intCol("specobjid"), intCol("bestobjid"), strCol("class"),
		floatCol("redshift"), floatCol("zconf")))
	specClass := datagen.NewZipf(r, len(classes), 1.5)
	for i := int64(0); i < nSpec; i++ {
		spec.Append(schema.Row{
			sqlval.Int(i),
			sqlval.Int(r.Int63n(nPhoto)),
			sqlval.String(classes[specClass.Next()]),
			sqlval.Float(r.Float64() * 3),
			sqlval.Float(0.5 + r.Float64()*0.5),
		})
	}

	// neighbors: pairs of nearby objects.
	neighbors := schema.NewRelation("neighbors", schema.New(
		intCol("objid"), intCol("neighborobjid"), floatCol("distance")))
	objZipf := datagen.NewZipf(r, int(nPhoto), 0.5) // mild clustering skew
	for i := int64(0); i < nNeighbors; i++ {
		neighbors.Append(schema.Row{
			sqlval.Int(objZipf.Next()),
			sqlval.Int(r.Int63n(nPhoto)),
			sqlval.Float(r.Float64() * 0.5),
		})
	}

	for _, rel := range []*schema.Relation{field, photo, spec, neighbors} {
		cat.AddRelation(rel)
	}
	cat.DeclareUnique("photoobj", "objid")
	cat.DeclareUnique("field", "fieldid")
	cat.DeclareUnique("specobj", "specobjid")
	cat.DeclareForeignKey(catalog.ForeignKey{
		ChildTable: "photoobj", ChildColumn: "fieldid",
		ParentTable: "field", ParentColumn: "fieldid"})
	cat.DeclareForeignKey(catalog.ForeignKey{
		ChildTable: "specobj", ChildColumn: "bestobjid",
		ParentTable: "photoobj", ParentColumn: "objid"})
	cat.DeclareForeignKey(catalog.ForeignKey{
		ChildTable: "neighbors", ChildColumn: "objid",
		ParentTable: "photoobj", ParentColumn: "objid"})
	return cat
}

// Query is one of the Table-3 sample queries.
type Query struct {
	// Num is the query's number in the SkyServer sample-query suite.
	Num int
	// Desc summarises the astronomical question.
	Desc string
	// Build constructs the plan.
	Build func(b *plan.Builder) plan.Node
}

func colRef(sch *schema.Schema, name string) expr.Expr { return expr.NewCol(sch, "", name) }

func cmpF(sch *schema.Schema, col string, op expr.CmpOp, v float64) expr.Expr {
	return expr.Compare(op, colRef(sch, col), expr.Literal(sqlval.Float(v)))
}

func eqStr(sch *schema.Schema, col, val string) expr.Expr {
	return expr.Compare(expr.EQ, colRef(sch, col), expr.Literal(sqlval.String(val)))
}

// Queries returns the seven long-running queries of Table 3.
func Queries() []Query {
	return []Query{
		{
			Num: 3, Desc: "galaxies with blue surface colour cuts",
			Build: func(b *plan.Builder) plan.Node {
				return b.ScanFiltered("photoobj", 0.02, func(s *schema.Schema) expr.Expr {
					return expr.And(
						eqStr(s, "type", "GALAXY"),
						cmpF(s, "g", expr.LT, 17),
						cmpF(s, "r", expr.LT, 16.5))
				}).ScalarAgg(plan.AggSpec{Kind: expr.AggCountStar, As: "cnt"})
			},
		},
		{
			Num: 6, Desc: "spectra of faint galaxies grouped by class",
			Build: func(b *plan.Builder) plan.Node {
				spec := b.Scan("specobj")
				photo := b.ScanFiltered("photoobj", 0.4, func(s *schema.Schema) expr.Expr {
					return cmpF(s, "r", expr.GT, 20)
				})
				j := spec.HashJoin(photo, "bestobjid", "objid", exec.InnerJoin)
				return j.Sort("class").StreamAgg(4, []string{"class"},
					plan.AggSpec{Kind: expr.AggCountStar, As: "cnt"},
					plan.AggSpec{Kind: expr.AggAvg, Col: "redshift", As: "avg_z"})
			},
		},
		{
			Num: 14, Desc: "objects in high-quality fields",
			Build: func(b *plan.Builder) plan.Node {
				f := b.ScanFiltered("field", 0.33, func(s *schema.Schema) expr.Expr {
					return expr.Compare(expr.EQ, colRef(s, "quality"), expr.Literal(sqlval.Int(3)))
				})
				j := b.ScanFiltered("photoobj", 0.3, func(s *schema.Schema) expr.Expr {
					return cmpF(s, "r", expr.LT, 21)
				}).HashJoin(f, "fieldid", "fieldid", exec.InnerJoin)
				return j.HashAgg(0, []string{"run"},
					plan.AggSpec{Kind: expr.AggCountStar, As: "cnt"})
			},
		},
		{
			Num: 18, Desc: "close neighbour pairs of bright objects",
			Build: func(b *plan.Builder) plan.Node {
				bright := b.ScanFiltered("photoobj", 0.25, func(s *schema.Schema) expr.Expr {
					return cmpF(s, "r", expr.LT, 20)
				})
				n := b.ScanFiltered("neighbors", 0.5, func(s *schema.Schema) expr.Expr {
					return cmpF(s, "distance", expr.LT, 0.25)
				}).HashJoin(bright, "objid", "objid", exec.InnerJoin)
				withOther := n.INLJoin("photoobj", "objid", "neighborobjid", exec.InnerJoin)
				return withOther.ScalarAgg(plan.AggSpec{Kind: expr.AggCountStar, As: "pairs"})
			},
		},
		{
			Num: 22, Desc: "high-confidence QSO spectra with photometry",
			Build: func(b *plan.Builder) plan.Node {
				spec := b.ScanFiltered("specobj", 0.1, func(s *schema.Schema) expr.Expr {
					return expr.And(eqStr(s, "class", "QSO"), cmpF(s, "zconf", expr.GT, 0.9))
				})
				photo := b.Scan("photoobj")
				j := photo.HashJoin(spec, "objid", "bestobjid", exec.InnerJoin)
				agg := j.Sort("redshift").StreamAgg(0, []string{"redshift"},
					plan.AggSpec{Kind: expr.AggCountStar, As: "cnt"})
				return agg.Top(1000)
			},
		},
		{
			Num: 28, Desc: "object counts by type",
			Build: func(b *plan.Builder) plan.Node {
				return b.Scan("photoobj").HashAgg(4, []string{"type"},
					plan.AggSpec{Kind: expr.AggCountStar, As: "cnt"}).Sort("type")
			},
		},
		{
			Num: 32, Desc: "per-field bright-object statistics",
			Build: func(b *plan.Builder) plan.Node {
				photo := b.ScanFiltered("photoobj", 0.4, func(s *schema.Schema) expr.Expr {
					return cmpF(s, "i", expr.LT, 21)
				})
				j := photo.HashJoin(b.Scan("field"), "fieldid", "fieldid", exec.InnerJoin)
				return j.HashAgg(0, []string{"run", "camcol"},
					plan.AggSpec{Kind: expr.AggCountStar, As: "cnt"},
					plan.AggSpec{Kind: expr.AggAvg, Col: "r", As: "avg_r"}).
					Sort("run", "camcol").Top(500)
			},
		},
	}
}

// BuildQuery builds sample query num over the catalog.
func BuildQuery(cat *catalog.Catalog, num int) (exec.Operator, error) {
	for _, q := range Queries() {
		if q.Num == num {
			return q.Build(plan.NewBuilder(cat)).Op, nil
		}
	}
	return nil, fmt.Errorf("skyserver: no sample query %d", num)
}
