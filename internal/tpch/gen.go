// Package tpch provides a scaled-down TPC-H database with configurable
// zipfian skew — the paper's experimental workload ("a 1 GB TPCH database
// with a skew factor of 2", generated with Microsoft's tpcdskew tool) — and
// physical plans for benchmark queries Q1–Q21 shaped after the plans a
// commercial engine produces for them.
//
// Absolute sizes are scaled by a scale factor (SF 1 would be the benchmark's
// 6M-row lineitem; experiments here use SF 0.005–0.05), while skew (z),
// relative table ratios, and column roles are preserved — the quantities
// progress-estimation behaviour depends on.
package tpch

import (
	"fmt"
	"math/rand"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// Config controls generation.
type Config struct {
	// SF is the scale factor (1.0 = the benchmark's nominal sizes).
	SF float64
	// Z is the zipfian skew exponent applied to foreign keys and
	// categorical columns (the paper uses 2).
	Z float64
	// Seed makes generation deterministic.
	Seed int64
}

// Sizes returns the table cardinalities for the configuration.
func (c Config) Sizes() map[string]int64 {
	sf := c.SF
	n := func(base float64) int64 {
		v := int64(base * sf)
		if v < 1 {
			v = 1
		}
		return v
	}
	return map[string]int64{
		"region":   5,
		"nation":   25,
		"supplier": n(10_000),
		"customer": n(150_000),
		"part":     n(200_000),
		"partsupp": n(200_000) * 4,
		"orders":   n(1_500_000),
		// lineitem rows are generated per order (1..7); this is the target
		// mean of 4 per order.
		"lineitem": n(1_500_000) * 4,
	}
}

var (
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations    = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX", "MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG", "JUMBO BAG", "WRAP CASE"}
	types      = []string{"STANDARD ANODIZED TIN", "STANDARD BURNISHED COPPER", "SMALL PLATED BRASS", "SMALL POLISHED STEEL", "MEDIUM BRUSHED NICKEL", "MEDIUM ANODIZED TIN", "LARGE PLATED COPPER", "LARGE POLISHED BRASS", "ECONOMY BURNISHED STEEL", "ECONOMY ANODIZED NICKEL", "PROMO BRUSHED TIN", "PROMO PLATED STEEL"}
	brands     = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22", "Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#41", "Brand#42", "Brand#43", "Brand#51", "Brand#52", "Brand#53"}
)

func intCol(n string) schema.Column   { return schema.Column{Name: n, Type: sqlval.KindInt} }
func floatCol(n string) schema.Column { return schema.Column{Name: n, Type: sqlval.KindFloat} }
func strCol(n string) schema.Column   { return schema.Column{Name: n, Type: sqlval.KindString} }
func dateCol(n string) schema.Column  { return schema.Column{Name: n, Type: sqlval.KindDate} }

// epochDay converts a (year, dayOfYear) pair to days since the Unix epoch,
// approximating months away (the workload only compares dates).
func epochDay(year int, day int) int64 {
	return int64(year-1970)*365 + int64(day)
}

// Generate builds the full skewed database and registers it, its statistics,
// foreign keys and the indexes the query plans use, in a fresh catalog.
func Generate(cfg Config) *catalog.Catalog {
	if cfg.SF <= 0 {
		cfg.SF = 0.01
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	sizes := cfg.Sizes()
	cat := catalog.New()

	// region
	region := schema.NewRelation("region", schema.New(intCol("r_regionkey"), strCol("r_name")))
	for i, name := range regions {
		region.Append(schema.Row{sqlval.Int(int64(i)), sqlval.String(name)})
	}

	// nation
	nation := schema.NewRelation("nation", schema.New(intCol("n_nationkey"), strCol("n_name"), intCol("n_regionkey")))
	for i, name := range nations {
		nation.Append(schema.Row{sqlval.Int(int64(i)), sqlval.String(name), sqlval.Int(int64(i % 5))})
	}

	// supplier
	nSupp := sizes["supplier"]
	supplier := schema.NewRelation("supplier", schema.New(
		intCol("s_suppkey"), strCol("s_name"), intCol("s_nationkey"), floatCol("s_acctbal")))
	suppNation := datagen.NewZipf(r, 25, cfg.Z)
	for i := int64(0); i < nSupp; i++ {
		supplier.Append(schema.Row{
			sqlval.Int(i),
			sqlval.String(fmt.Sprintf("Supplier#%09d", i)),
			sqlval.Int(suppNation.Next()),
			sqlval.Float(float64(r.Intn(1100000))/100 - 1000),
		})
	}

	// customer
	nCust := sizes["customer"]
	customer := schema.NewRelation("customer", schema.New(
		intCol("c_custkey"), strCol("c_name"), intCol("c_nationkey"),
		strCol("c_mktsegment"), floatCol("c_acctbal")))
	custNation := datagen.NewZipf(r, 25, cfg.Z)
	custSeg := datagen.NewZipf(r, len(segments), cfg.Z)
	for i := int64(0); i < nCust; i++ {
		customer.Append(schema.Row{
			sqlval.Int(i),
			sqlval.String(fmt.Sprintf("Customer#%09d", i)),
			sqlval.Int(custNation.Next()),
			sqlval.String(segments[custSeg.Next()]),
			sqlval.Float(float64(r.Intn(1100000))/100 - 1000),
		})
	}

	// part
	nPart := sizes["part"]
	part := schema.NewRelation("part", schema.New(
		intCol("p_partkey"), strCol("p_name"), strCol("p_brand"), strCol("p_type"),
		intCol("p_size"), strCol("p_container"), floatCol("p_retailprice")))
	partBrand := datagen.NewZipf(r, len(brands), cfg.Z)
	partType := datagen.NewZipf(r, len(types), cfg.Z)
	partCont := datagen.NewZipf(r, len(containers), cfg.Z)
	for i := int64(0); i < nPart; i++ {
		part.Append(schema.Row{
			sqlval.Int(i),
			sqlval.String(fmt.Sprintf("part %d %s", i, types[partType.Next()%int64(len(types))])),
			sqlval.String(brands[partBrand.Next()]),
			sqlval.String(types[partType.Next()]),
			sqlval.Int(int64(1 + r.Intn(50))),
			sqlval.String(containers[partCont.Next()]),
			sqlval.Float(900 + float64(i%200)),
		})
	}

	// partsupp: 4 suppliers per part, supplier drawn with skew.
	partsupp := schema.NewRelation("partsupp", schema.New(
		intCol("ps_partkey"), intCol("ps_suppkey"), intCol("ps_availqty"), floatCol("ps_supplycost")))
	psSupp := datagen.NewZipf(r, int(nSupp), cfg.Z)
	for i := int64(0); i < nPart; i++ {
		for k := 0; k < 4; k++ {
			partsupp.Append(schema.Row{
				sqlval.Int(i),
				sqlval.Int(psSupp.Next()),
				sqlval.Int(int64(1 + r.Intn(9999))),
				sqlval.Float(float64(r.Intn(100000)) / 100),
			})
		}
	}

	// orders
	nOrders := sizes["orders"]
	orders := schema.NewRelation("orders", schema.New(
		intCol("o_orderkey"), intCol("o_custkey"), strCol("o_orderstatus"),
		floatCol("o_totalprice"), dateCol("o_orderdate"), strCol("o_orderpriority")))
	ordCust := datagen.NewZipf(r, int(nCust), cfg.Z)
	ordPrio := datagen.NewZipf(r, len(priorities), cfg.Z)
	orderDates := make([]int64, nOrders)
	for i := int64(0); i < nOrders; i++ {
		d := epochDay(1992+r.Intn(7), r.Intn(365))
		orderDates[i] = d
		status := "O"
		if r.Intn(2) == 0 {
			status = "F"
		}
		orders.Append(schema.Row{
			sqlval.Int(i),
			sqlval.Int(ordCust.Next()),
			sqlval.String(status),
			sqlval.Float(1000 + float64(r.Intn(450000))/100),
			sqlval.Date(d),
			sqlval.String(priorities[ordPrio.Next()]),
		})
	}

	// lineitem: 1..7 lines per order.
	lineitem := schema.NewRelation("lineitem", schema.New(
		intCol("l_orderkey"), intCol("l_partkey"), intCol("l_suppkey"), intCol("l_linenumber"),
		floatCol("l_quantity"), floatCol("l_extendedprice"), floatCol("l_discount"), floatCol("l_tax"),
		strCol("l_returnflag"), strCol("l_linestatus"),
		dateCol("l_shipdate"), dateCol("l_commitdate"), dateCol("l_receiptdate"),
		strCol("l_shipmode"), strCol("l_shipinstruct")))
	liPart := datagen.NewZipf(r, int(nPart), cfg.Z)
	liSupp := datagen.NewZipf(r, int(nSupp), cfg.Z)
	liMode := datagen.NewZipf(r, len(shipmodes), cfg.Z)
	liInstr := datagen.NewZipf(r, len(instructs), cfg.Z)
	liQty := datagen.NewZipf(r, 50, cfg.Z/2)
	for o := int64(0); o < nOrders; o++ {
		lines := 1 + r.Intn(7)
		for ln := 0; ln < lines; ln++ {
			ship := orderDates[o] + int64(1+r.Intn(121))
			commit := ship + int64(r.Intn(61)) - 30
			receipt := ship + int64(1+r.Intn(30))
			qty := float64(1 + liQty.Next())
			price := qty * (900 + float64(liPart.Next()%200))
			rf := "N"
			switch r.Intn(3) {
			case 0:
				rf = "A"
			case 1:
				rf = "R"
			}
			ls := "O"
			if r.Intn(2) == 0 {
				ls = "F"
			}
			lineitem.Append(schema.Row{
				sqlval.Int(o),
				sqlval.Int(liPart.Next()),
				sqlval.Int(liSupp.Next()),
				sqlval.Int(int64(ln)),
				sqlval.Float(qty),
				sqlval.Float(price),
				sqlval.Float(float64(r.Intn(11)) / 100),
				sqlval.Float(float64(r.Intn(9)) / 100),
				sqlval.String(rf),
				sqlval.String(ls),
				sqlval.Date(ship),
				sqlval.Date(commit),
				sqlval.Date(receipt),
				sqlval.String(shipmodes[liMode.Next()]),
				sqlval.String(instructs[liInstr.Next()]),
			})
		}
	}

	for _, rel := range []*schema.Relation{region, nation, supplier, customer, part, partsupp, orders, lineitem} {
		cat.AddRelation(rel)
	}

	for _, fk := range []catalog.ForeignKey{
		{ChildTable: "nation", ChildColumn: "n_regionkey", ParentTable: "region", ParentColumn: "r_regionkey"},
		{ChildTable: "supplier", ChildColumn: "s_nationkey", ParentTable: "nation", ParentColumn: "n_nationkey"},
		{ChildTable: "customer", ChildColumn: "c_nationkey", ParentTable: "nation", ParentColumn: "n_nationkey"},
		{ChildTable: "partsupp", ChildColumn: "ps_partkey", ParentTable: "part", ParentColumn: "p_partkey"},
		{ChildTable: "partsupp", ChildColumn: "ps_suppkey", ParentTable: "supplier", ParentColumn: "s_suppkey"},
		{ChildTable: "orders", ChildColumn: "o_custkey", ParentTable: "customer", ParentColumn: "c_custkey"},
		{ChildTable: "lineitem", ChildColumn: "l_orderkey", ParentTable: "orders", ParentColumn: "o_orderkey"},
		{ChildTable: "lineitem", ChildColumn: "l_partkey", ParentTable: "part", ParentColumn: "p_partkey"},
		{ChildTable: "lineitem", ChildColumn: "l_suppkey", ParentTable: "supplier", ParentColumn: "s_suppkey"},
	} {
		cat.DeclareForeignKey(fk)
	}
	cat.DeclareUnique("orders", "o_orderkey")
	cat.DeclareUnique("customer", "c_custkey")
	cat.DeclareUnique("part", "p_partkey")
	cat.DeclareUnique("supplier", "s_suppkey")
	cat.DeclareUnique("nation", "n_nationkey")
	cat.DeclareUnique("region", "r_regionkey")

	return cat
}
