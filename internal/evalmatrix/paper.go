package evalmatrix

import (
	"fmt"
	"slices"
	"strings"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/core"
	"sqlprogress/internal/datagen"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/skyserver"
	"sqlprogress/internal/sqlval"
	"sqlprogress/internal/stats"
	"sqlprogress/internal/tpch"
)

// The paper cells' data. The paper's absolute sizes (10M-row synthetic
// relations, 1 GB TPC-H) only change constants, not shapes.
const (
	paperSeed      = 42
	paperSynthRows = 30_000 // N = |R1| = |R2| of Section 5's zipf pair
	paperZipf      = 2
	paperTPCHScale = 0.01
	paperSkyRows   = 40_000
	factPad        = 400 // bytes of padding per pager fact row
	dimRows        = 97  // pager dimension rows (and fact groups)
)

// paperDataset tags the paper cells' rows.
var paperDataset = dataset{name: "paper"}

// paperData generates each of the paper's data sets on first use and shares
// it across the cells that read it.
type paperData struct {
	tpchCat, skyCat, pairCat *catalog.Catalog
	pair                     *datagen.SkewPair
	fact                     *pager.HeapFile
	dim                      *schema.Relation
}

func (d *paperData) tpch() *catalog.Catalog {
	if d.tpchCat == nil {
		d.tpchCat = tpch.Generate(tpch.Config{SF: paperTPCHScale, Z: paperZipf, Seed: paperSeed})
	}
	return d.tpchCat
}

func (d *paperData) sky() *catalog.Catalog {
	if d.skyCat == nil {
		d.skyCat = skyserver.Generate(skyserver.Config{PhotoObj: paperSkyRows, Seed: paperSeed})
	}
	return d.skyCat
}

// skewPair is Section 5's zipf pair with R1.A declared unique (it is), which
// makes the INL join provably linear.
func (d *paperData) skewPair() (*catalog.Catalog, *datagen.SkewPair) {
	if d.pairCat == nil {
		d.pair = datagen.NewSkewPair(paperSynthRows, paperSynthRows, paperZipf, paperSeed)
		d.pairCat = catalog.New()
		d.pairCat.AddRelation(d.pair.R1)
		d.pairCat.AddRelation(d.pair.R2)
		d.pairCat.DeclareUnique("r1", "a")
	}
	return d.pairCat, d.pair
}

// inl is the paper's Figure 2 plan, scan(R1, order) -> INL-join(index on
// R2.B); a non-nil keep filters R1 before the join.
func (d *paperData) inl(order datagen.OrderKind, keep func(*schema.Schema) expr.Expr) exec.Operator {
	cat, pair := d.skewPair()
	b := plan.NewBuilder(cat)
	perm := pair.Order(order, paperSeed+1)
	scan := b.ScanOrdered("r1", perm)
	if keep != nil {
		scan = b.ScanFilteredOrdered("r1", perm, 0.99, keep)
	}
	return scan.INLJoin("r2", "b", "a", exec.InnerJoin).Op
}

// pagerCat binds the pager fact table's heap file to a fresh pool: cold is a
// pool too small to cache the scan, warm one that holds every page, faulted
// in before the measured run.
func (d *paperData) pagerCat(warm bool) (*catalog.Catalog, error) {
	if d.fact == nil {
		fact := schema.NewRelation("fact", schema.New(
			schema.Column{Name: "k", Type: sqlval.KindInt},
			schema.Column{Name: "g", Type: sqlval.KindInt},
			schema.Column{Name: "pad", Type: sqlval.KindString},
		))
		pad := strings.Repeat("x", factPad)
		for i := 0; i < paperSynthRows; i++ {
			fact.Append(schema.Row{sqlval.Int(int64(i)), sqlval.Int(int64(i % dimRows)), sqlval.String(pad)})
		}
		hf, err := spill(fact)
		if err != nil {
			return nil, err
		}
		d.fact = hf
		d.dim = datagen.IntRelation("dim", "dg", datagen.Sequence(dimRows))
	}
	pr := pagedStore(d.fact, pagedFrames)
	if warm {
		pr = pagedStore(d.fact, int(d.fact.DataPages())+pagedFrames)
		if _, err := exec.RunBatch(exec.NewCtx(), exec.NewStoreScan(pr, nil)); err != nil {
			return nil, err
		}
	}
	cat := catalog.New()
	cat.AddStore(pr)
	cat.AddRelation(d.dim)
	cat.DeclareUnique("dim", "dg")
	return cat, nil
}

func (d *paperData) close() {
	if d.fact != nil {
		d.fact.Close()
	}
}

// paperCell is one sampled run of a paper artifact.
type paperCell struct {
	name  string
	build func(d *paperData) (exec.Operator, error)
}

func tpchCell(name string, q int) paperCell {
	return paperCell{name, func(d *paperData) (exec.Operator, error) { return tpch.BuildQuery(d.tpch(), q) }}
}

// paperCells lists every paper cell in artifact order.
func paperCells() []paperCell {
	inl := func(order datagen.OrderKind, keep func(*schema.Schema) expr.Expr) func(*paperData) (exec.Operator, error) {
		return func(d *paperData) (exec.Operator, error) { return d.inl(order, keep), nil }
	}
	cells := []paperCell{
		tpchCell("fig3", 1),
		{"fig4", inl(datagen.OrderSkewFirst, nil)},
		{"fig5", inl(datagen.OrderSkewLast, nil)},
		// Example 3's scan-based plan: hash join with R1 the build side.
		{"tab1-hash", func(d *paperData) (exec.Operator, error) {
			cat, pair := d.skewPair()
			b := plan.NewBuilder(cat)
			build := b.ScanOrdered("r1", pair.Order(datagen.OrderSkewLast, paperSeed+1))
			return b.Scan("r2").HashJoin(build, "b", "a", exec.InnerJoin).Op, nil
		}},
		tpchCell("fig6", 21),
		// Keys are ranked by fan-out (key 0 heaviest): dropping the top 1%
		// collapses the per-tuple variance.
		{"fig7", inl(datagen.OrderSkewLast, func(s *schema.Schema) expr.Expr {
			return expr.Compare(expr.GE, expr.NewCol(s, "", "a"), expr.Literal(sqlval.Int(paperSynthRows/100)))
		})},
	}
	for _, q := range tpch.Queries() {
		cells = append(cells, tpchCell(fmt.Sprintf("tab2-q%d", q.Num), q.Num))
	}
	for _, q := range skyserver.Queries() {
		cells = append(cells, paperCell{fmt.Sprintf("tab3-q%d", q.Num), func(d *paperData) (exec.Operator, error) {
			return skyserver.BuildQuery(d.sky(), q.Num)
		}})
	}
	for _, query := range []string{"scan", "hash-join-agg"} {
		for _, regime := range []string{"cold", "warm"} {
			cells = append(cells, paperCell{"pager-" + query + "-" + regime, func(d *paperData) (exec.Operator, error) {
				cat, err := d.pagerCat(regime == "warm")
				if err != nil {
					return nil, err
				}
				b := plan.NewBuilder(cat)
				if query == "scan" {
					return b.Scan("fact").Op, nil
				}
				return b.Scan("fact").
					HashJoin(b.Scan("dim"), "g", "dg", exec.InnerJoin).
					HashAgg(dimRows, []string{"dg"}, plan.AggSpec{Kind: expr.AggCountStar, As: "n"}).Op, nil
			}})
		}
	}
	return cells
}

// Artifact is one of the paper's figures and tables (plus the cold-vs-warm
// pager experiment), reproduced by one or more paper cells.
type Artifact struct {
	// ID names the artifact (fig3, tab1, pager, ...).
	ID string
	// Title matches the paper's caption.
	Title string
	cells []string // the paper cells it is scored on
	ests  []string // the estimators it shows
	paper string   // what the paper reports
}

// PaperArtifacts returns every artifact in paper order.
func PaperArtifacts() []Artifact {
	var tab2, tab3, pagerCells []string
	for _, c := range paperCells() {
		switch {
		case strings.HasPrefix(c.name, "tab2-"):
			tab2 = append(tab2, c.name)
		case strings.HasPrefix(c.name, "tab3-"):
			tab3 = append(tab3, c.name)
		case strings.HasPrefix(c.name, "pager-"):
			pagerCells = append(pagerCells, c.name)
		}
	}
	return []Artifact{
		{"fig3", "dne estimator for TPC-H Query 1", []string{"fig3"}, []string{"dne"},
			"paper: mu 1.989 at 1 GB, z=2; dne almost exactly accurate"},
		{"fig4", "pmax vs dne (INL join, skewed tuples first)", []string{"fig4"}, []string{"dne", "pmax"},
			"paper: dne underestimates; pmax within mu (Theorem 5)"},
		{"fig5", "safe vs dne (worst-case order: skewed tuple last)", []string{"fig5"}, []string{"dne", "safe"},
			"paper: max abs error dne 49.5%, safe 25.2%"},
		{"tab1", "impact of scan-based plan (fig5 is the INL plan)", []string{"fig5", "tab1-hash"}, []string{"dne", "pmax", "safe"},
			"paper max abs error INL/hash: dne 49.50%/19.20%, pmax 49.50%/19.20%, safe 25.2%/8.2%; avg: dne 24.74%/7.37%, pmax 24.74%/9.04%, safe 14.8%/4.2%"},
		{"fig6", "ratio error of pmax over TPC-H Q21 execution", []string{"fig6"}, []string{"pmax"},
			"paper: mu 2.782; ratio error ~1.5 after ~30%, converging to 1"},
		{"fig7", "safe vs dne in a favourable case", []string{"fig7"}, []string{"dne", "safe"},
			"paper: dne almost exactly accurate; safe off by ~20% at the end"},
		{"tab2", "mu values for TPC-H", tab2, nil,
			"paper (1 GB, z=2): 1.989 1.213 1.886 1.003 1.007 1.008 1.538 1.432 1.021 1.004 1.014 1.001 2.019 1.001 1.149 1.157 1.020 2.771 1.025 1.159 2.782 for Q1-Q21; 17 of 21 below 1.5"},
		{"tab3", "mu values for SkyServer", tab3, nil,
			"paper: Q3 1.008, Q6 1.428, Q14 1.078, Q18 1.79, Q22 1.246, Q28 1.044, Q32 1.253; the data set is a synthetic stand-in for the SDSS personal edition"},
		{"pager", "I/O-bound estimation: cold vs warm buffer pool", pagerCells, []string{"dne", "pmax", "safe"},
			fmt.Sprintf("not in the paper: %d fact rows of %d bytes, read cost %d units per physical read, cold pool %d frames; warm runs never miss, so they equal the in-memory accounting",
				paperSynthRows, factPad, pagedReadCost, pagedFrames)},
	}
}

// Scored is one scored cell: a row per estimator and, at the same index, the
// sampled series the row was scored on.
type Scored struct {
	Rows   []Row
	Series [][]core.Point
}

// at returns the row and series of the named estimator.
func (s Scored) at(est string) (Row, []core.Point) {
	for i, r := range s.Rows {
		if r.Estimator == est {
			return r, s.Series[i]
		}
	}
	return Row{}, nil
}

// RunPaper scores the paper cells of the named artifacts (every cell when
// none is named), in cell order, each as a cell of dataset "paper" with
// fresh statistics.
func RunPaper(opts Options, ids ...string) ([]Scored, error) {
	opts = opts.withDefaults()
	want, found := map[string]bool{}, 0
	for _, a := range PaperArtifacts() {
		if slices.Contains(ids, a.ID) {
			found++
			for _, c := range a.cells {
				want[c] = true
			}
		}
	}
	if found < len(ids) {
		return nil, fmt.Errorf("evalmatrix: unknown paper artifact in %q", ids)
	}
	d := &paperData{}
	defer d.close()
	var out []Scored
	for _, c := range paperCells() {
		if len(ids) > 0 && !want[c.name] {
			continue
		}
		sc, err := runCell(paperDataset, stats.Fresh,
			familySpec{c.name, func() (exec.Operator, error) { return c.build(d) }}, opts)
		if err != nil {
			return nil, fmt.Errorf("evalmatrix: paper/%s: %w", c.name, err)
		}
		out = append(out, sc)
	}
	return out, nil
}

// Report renders the artifact from its scored cells: a figure as its sampled
// series with the headline numbers as notes, a table as one line per cell.
// Metrics holds every number shown, keyed cell_estimator_measure.
func (a Artifact) Report(scored []Scored) Result {
	byCell := map[string]Scored{}
	for _, s := range scored {
		byCell[s.Rows[0].Family] = s
	}
	res := Result{ID: a.ID, Title: a.Title, Metrics: map[string]float64{}}
	for _, c := range a.cells {
		s := byCell[c]
		res.Metrics[c+"_mu"] = s.Rows[0].Mu
		for _, e := range a.ests {
			r, _ := s.at(e)
			res.Metrics[c+"_"+e+"_max_abs_err"] = r.MaxAbsErr
			res.Metrics[c+"_"+e+"_l1_err"] = r.L1Err
			res.Metrics[c+"_"+e+"_max_ratio_err"] = r.MaxRatioErr
		}
	}
	if len(a.cells) == 1 {
		s := byCell[a.cells[0]]
		res.Headers = append([]string{"actual"}, a.ests...)
		_, first := s.at(a.ests[0])
		for i, p := range first {
			line := []string{f3(p.Actual)}
			for _, e := range a.ests {
				_, pts := s.at(e)
				line = append(line, f3(pts[i].Est))
			}
			res.Rows = append(res.Rows, line)
		}
		res.Notes = append(res.Notes, fmt.Sprintf("mu = %.3f, %d samples", s.Rows[0].Mu, s.Rows[0].Samples))
		for _, e := range a.ests {
			r, _ := s.at(e)
			res.Notes = append(res.Notes, fmt.Sprintf("%s: max abs error %s, avg abs error %s, max ratio error %.3f, converged at %.3f",
				e, pct(r.MaxAbsErr), pct(r.L1Err), r.MaxRatioErr, r.Convergence))
		}
	} else {
		res.Headers = []string{"cell", "mu", "samples"}
		for _, e := range a.ests {
			res.Headers = append(res.Headers, e+" max_abs", e+" avg_abs", e+" ratio")
		}
		for _, c := range a.cells {
			s := byCell[c]
			line := []string{c, f3(s.Rows[0].Mu), fmt.Sprint(s.Rows[0].Samples)}
			for _, e := range a.ests {
				r, _ := s.at(e)
				line = append(line, pct(r.MaxAbsErr), pct(r.L1Err), f3(r.MaxRatioErr))
			}
			res.Rows = append(res.Rows, line)
		}
	}
	switch a.ID {
	case "fig6":
		_, pts := byCell["fig6"].at("pmax")
		res.Metrics["ratio_at_50pc"] = core.RatioErrorAfter(pts, 0.5)
		res.Metrics["ratio_at_90pc"] = core.RatioErrorAfter(pts, 0.9)
		res.Notes = append(res.Notes, fmt.Sprintf("pmax ratio error after 50%% of execution = %.3f, after 90%% = %.3f",
			res.Metrics["ratio_at_50pc"], res.Metrics["ratio_at_90pc"]))
	case "tab2":
		below := 0
		for _, c := range a.cells {
			if byCell[c].Rows[0].Mu < 1.5 {
				below++
			}
		}
		res.Metrics["mu_below_1.5"] = float64(below)
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d queries have mu < 1.5", below, len(a.cells)))
	}
	res.Notes = append(res.Notes, a.paper)
	return res
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// paperClaim is one of the paper's qualitative claims, stated over the paper
// cells' rows; at returns the row of a cell and estimator.
type paperClaim struct {
	name  string
	check func(at func(cell, est string) Row) error
}

// paperClaims are the claims the reproduction must keep.
var paperClaims = []paperClaim{
	{"fig3/dne-nearly-exact", func(at func(string, string) Row) error {
		return atMost("dne max_abs_err", at("fig3", "dne").MaxAbsErr, 0.06)
	}},
	{"fig4/dne-underestimates", func(at func(string, string) Row) error {
		return below("0.2 vs dne max_abs_err", 0.2, at("fig4", "dne").MaxAbsErr)
	}},
	{"fig4/pmax-within-mu", func(at func(string, string) Row) error {
		r := at("fig4", "pmax")
		return atMost("pmax max_ratio_err", r.MaxRatioErr, r.Mu)
	}},
	{"fig5/safe-beats-dne", func(at func(string, string) Row) error {
		return below("safe vs dne max_abs_err", at("fig5", "safe").MaxAbsErr, at("fig5", "dne").MaxAbsErr)
	}},
	{"tab1/hash-beats-inl", func(at func(string, string) Row) error {
		for _, e := range []string{"dne", "pmax", "safe"} {
			hash, inl := at("tab1-hash", e), at("fig5", e)
			if err := below(e+" max_abs_err", hash.MaxAbsErr, inl.MaxAbsErr); err != nil {
				return err
			}
			if err := below(e+" l1_err", hash.L1Err, inl.L1Err); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig6/pmax-converges", func(at func(string, string) Row) error {
		return below("pmax convergence", at("fig6", "pmax").Convergence, 1)
	}},
	{"fig7/dne-nearly-exact", func(at func(string, string) Row) error {
		return atMost("dne max_abs_err", at("fig7", "dne").MaxAbsErr, 0.05)
	}},
	{"fig7/safe-visibly-off", func(at func(string, string) Row) error {
		return atMost("0.1 vs safe max_abs_err", 0.1, at("fig7", "safe").MaxAbsErr)
	}},
	{"tab2/mu-mostly-below-1.5", func(at func(string, string) Row) error {
		n := 0
		for _, q := range tpch.Queries() {
			if at(fmt.Sprintf("tab2-q%d", q.Num), "dne").Mu < 1.5 {
				n++
			}
		}
		if n < 14 {
			return fmt.Errorf("%d of %d queries have mu < 1.5, want >= 14", n, len(tpch.Queries()))
		}
		return nil
	}},
	{"tab2/mu-in-range", func(at func(string, string) Row) error {
		for _, q := range tpch.Queries() {
			if err := muIn(at(fmt.Sprintf("tab2-q%d", q.Num), "dne"), 5); err != nil {
				return err
			}
		}
		return nil
	}},
	{"tab3/mu-in-range", func(at func(string, string) Row) error {
		for _, q := range skyserver.Queries() {
			if err := muIn(at(fmt.Sprintf("tab3-q%d", q.Num), "dne"), 2.5); err != nil {
				return err
			}
		}
		return nil
	}},
	{"pager/cold-worse-than-warm", func(at func(string, string) Row) error {
		for _, q := range []string{"scan", "hash-join-agg"} {
			for _, e := range []string{"dne", "pmax"} {
				cold, warm := at("pager-"+q+"-cold", e), at("pager-"+q+"-warm", e)
				if cold.MaxRatioErr <= warm.MaxRatioErr+0.01 {
					return fmt.Errorf("%s %s: cold max_ratio_err %.4f not above warm %.4f + 0.01",
						q, e, cold.MaxRatioErr, warm.MaxRatioErr)
				}
			}
		}
		return nil
	}},
	{"pager/pmax-within-mu", func(at func(string, string) Row) error {
		for _, q := range []string{"scan", "hash-join-agg"} {
			for _, regime := range []string{"cold", "warm"} {
				r := at("pager-"+q+"-"+regime, "pmax")
				if err := atMost(q+" "+regime+" pmax max_ratio_err", r.MaxRatioErr, r.Mu); err != nil {
					return err
				}
			}
		}
		return nil
	}},
}

func atMost(what string, v, limit float64) error {
	if v > limit+1e-9 {
		return fmt.Errorf("%s %.4f > %.4f", what, v, limit)
	}
	return nil
}

func below(what string, v, limit float64) error {
	if v >= limit {
		return fmt.Errorf("%s %.4f not below %.4f", what, v, limit)
	}
	return nil
}

func muIn(r Row, hi float64) error {
	if r.Mu < 1 || r.Mu > hi {
		return fmt.Errorf("%s: mu %.3f outside [1, %g]", r.Family, r.Mu, hi)
	}
	return nil
}

// PaperClaims checks the paper's qualitative claims against an artifact's
// paper rows: one error per paper cell and estimator missing from rows, then
// one per claim that fails, each prefixed with the claim's name.
func PaperClaims(rows []Row) []error {
	idx := map[string]Row{}
	for _, r := range rows {
		if r.Dataset == paperDataset.name {
			idx[r.Family+"/"+r.Estimator] = r
		}
	}
	var errs []error
	for _, c := range paperCells() {
		for _, e := range estimators(Options{}) {
			if _, ok := idx[c.name+"/"+e.Name()]; !ok {
				errs = append(errs, fmt.Errorf("paper/%s/%s: no row", c.name, e.Name()))
			}
		}
	}
	at := func(cell, est string) Row { return idx[cell+"/"+est] }
	for _, c := range paperClaims {
		if err := c.check(at); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", c.name, err))
		}
	}
	return errs
}
