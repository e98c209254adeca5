// Package sqlprogress is a progress-estimation toolkit for SQL queries,
// reproducing "When Can We Trust Progress Estimators for SQL Queries?"
// (Chaudhuri, Kaushik, Ramamurthy; SIGMOD 2005).
//
// It bundles a complete in-memory SQL engine (iterator-model executor,
// hash/merge/nested-loops joins, sorting, aggregation, histograms and a SQL
// subset compiler) instrumented under the paper's GetNext model of work,
// and the paper's progress estimators:
//
//   - dne — the driver-node estimator of prior work; near-exact when
//     per-tuple work has low variance or arrival order is random,
//   - pmax — Curr/LB over continuously-refined cardinality bounds; never
//     underestimates and its ratio error is bounded by mu,
//   - safe — Curr/sqrt(LB*UB); worst-case optimal,
//   - trivial and the heuristic hybrids of the paper's Section 6.4.
//
// Quick start:
//
//	db := sqlprogress.OpenTPCH(0.01, 2, 42)
//	q, _ := db.Query("SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag")
//	res, _ := q.RunWithProgress(sqlprogress.ProgressOptions{}, func(u sqlprogress.ProgressUpdate) {
//		fmt.Printf("\r%.0f%%", 100*u.Estimate)
//	})
//
// The packages under internal/ hold the engine; this package is the stable
// public surface.
package sqlprogress

import (
	"fmt"
	"time"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/skyserver"
	"sqlprogress/internal/sqlval"
	"sqlprogress/internal/tpch"
)

// Kind is a column type.
type Kind = sqlval.Kind

// Column types for CreateTable.
const (
	Int    = sqlval.KindInt
	Float  = sqlval.KindFloat
	String = sqlval.KindString
	Bool   = sqlval.KindBool
	Date   = sqlval.KindDate
)

// Column declares one attribute in CreateTable.
type Column struct {
	Name string
	Type Kind
}

// DB is a database instance: named in-memory tables with statistics,
// optional indexes and key declarations. Tables can be spilled to
// disk-backed paged storage (SpillToDisk), after which scans go through a
// shared buffer pool.
type DB struct {
	cat  *catalog.Catalog
	pool *pager.Pool
}

// Open returns an empty database.
func Open() *DB { return &DB{cat: catalog.New()} }

// OpenTPCH generates the scaled, zipf-skewed TPC-H database used by the
// paper's experiments (sf: scale factor, z: skew, deterministic per seed).
func OpenTPCH(sf, z float64, seed int64) *DB {
	return &DB{cat: tpch.Generate(tpch.Config{SF: sf, Z: z, Seed: seed})}
}

// OpenSkyServer generates the synthetic astronomy database standing in for
// the paper's SkyServer data set.
func OpenSkyServer(photoObjRows, seed int64) *DB {
	return &DB{cat: skyserver.Generate(skyserver.Config{PhotoObj: photoObjRows, Seed: seed})}
}

// Catalog exposes the underlying catalog for advanced use (index creation,
// statistics inspection, programmatic plans via Builder).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Builder returns a physical-plan builder over this database, for
// constructing plans directly instead of via SQL.
func (db *DB) Builder() *plan.Builder { return plan.NewBuilder(db.cat) }

// CreateTable registers an empty table. Statistics are (re)built when rows
// are loaded with Insert.
func (db *DB) CreateTable(name string, cols []Column) error {
	if len(cols) == 0 {
		return fmt.Errorf("sqlprogress: table %q needs at least one column", name)
	}
	sc := make([]schema.Column, len(cols))
	for i, c := range cols {
		sc[i] = schema.Column{Name: c.Name, Type: c.Type}
	}
	db.cat.AddRelation(schema.NewRelation(name, schema.New(sc...)))
	return nil
}

// Insert appends rows (Go values: int/int64/float64/string/bool/time.Time/
// nil) to a table and refreshes its statistics.
func (db *DB) Insert(table string, rows ...[]interface{}) error {
	rel, err := db.cat.Relation(table)
	if err != nil {
		return err
	}
	for _, r := range rows {
		row := make(schema.Row, len(r))
		for i, v := range r {
			cv, err := toValue(v)
			if err != nil {
				return fmt.Errorf("sqlprogress: row %v column %d: %w", r, i, err)
			}
			row[i] = cv
		}
		rel.Append(row)
	}
	// Re-register to rebuild statistics over the new contents.
	db.cat.AddRelation(rel)
	return nil
}

// DeclareUnique marks a column as a key, enabling linear-join detection
// (Section 5.1 of the paper) for joins on it.
func (db *DB) DeclareUnique(table, column string) {
	db.cat.DeclareUnique(table, column)
}

// DeclareForeignKey declares child.childCol references parent.parentCol
// (implying parentCol is unique).
func (db *DB) DeclareForeignKey(childTable, childCol, parentTable, parentCol string) {
	db.cat.DeclareForeignKey(catalog.ForeignKey{
		ChildTable: childTable, ChildColumn: childCol,
		ParentTable: parentTable, ParentColumn: parentCol,
	})
}

// Tables lists the registered table names.
func (db *DB) Tables() []string { return db.cat.TableNames() }

func toValue(v interface{}) (sqlval.Value, error) {
	switch t := v.(type) {
	case nil:
		return sqlval.Null(), nil
	case int:
		return sqlval.Int(int64(t)), nil
	case int32:
		return sqlval.Int(int64(t)), nil
	case int64:
		return sqlval.Int(t), nil
	case float32:
		return sqlval.Float(float64(t)), nil
	case float64:
		return sqlval.Float(t), nil
	case string:
		return sqlval.String(t), nil
	case bool:
		return sqlval.Bool(t), nil
	case time.Time:
		return sqlval.DateFromTime(t), nil
	case sqlval.Value:
		return t, nil
	default:
		return sqlval.Null(), fmt.Errorf("unsupported Go type %T", v)
	}
}
