// Package compile binds a parsed SELECT statement against a catalog and
// produces a physical plan: single-table predicates are pushed into scans,
// equi-join predicates drive a left-deep hash-join tree in FROM order,
// EXISTS/IN subqueries become semi/anti hash joins, and aggregation,
// HAVING, ORDER BY and LIMIT layer on top. It is a rule-based planner —
// the paper's subject is what happens *after* the optimizer picked a plan,
// so plan choice is deliberately simple and predictable.
//
// Build side: an inner equi-join builds its hash table on the tables already
// joined when their plan-time upper bound on delivered rows
// (exec.PlanRowBounds) is smaller than the joined table's scan's, and on that
// table otherwise — a tie keeps FROM order. The bound, not the estimate,
// decides: a selectivity guess can be wrong by any factor, a bound only in
// the safe direction. Either way the join emits the earlier tables' columns
// first (exec.HashJoin.SetBuildFirst), so nothing above it sees the choice.
// LEFT, semi/anti and cross joins keep their fixed sides.
//
// Join width: each inner or left-outer hash join emits only the child
// columns whose name is read by something evaluated above it — the select
// list, GROUP BY, HAVING, ORDER BY, residual filters, EXISTS/IN sub-selects
// (every clause) and the join predicates of the joins placed after it — and
// every column under SELECT *. The names come from the walk that collects
// what a statement reads (readNames), taken clause by clause from the top of
// the join chain down (joinOutputs). It is sound because binding is by name:
// whatever is evaluated at a join finds, under each name it reads, the same
// columns it would find in a full-width row, since every join below it keeps
// every column of that name. Join keys are evaluated on the child rows, so a
// key need not outlive its own join. And since the paper counts GetNext
// calls, not bytes, every node's counts, bounds and estimates are the same as
// with full-width rows — only the copying per joined row shrinks. Semi/anti
// joins already emit the probe row as is.
//
// Scan width: every scan the compiler builds gets the statement-wide set
// (statementColumns): all the names the statement reads. A scan of
// an in-memory relation ignores it and hands out references into the base
// relation, as before; a scan of a disk-backed table (a pager heap file)
// has to build its rows anyway, so it decodes only the table's columns whose
// name is in the set — none at all under a bare COUNT(*) — and its schema
// holds only those. Pushed predicates are bound against that schema. The
// argument is the one above: a row is one GetNext call however wide it is.
//
// Limitations (documented, erroring cleanly): self-joins of a table with
// itself via aliases, a LEFT JOIN's ON conjuncts other than equi-joins and
// predicates on the joined table alone (those filter its scan), correlated
// subqueries beyond a single correlation equality, and NOT IN's
// NULL-propagating semantics (compiled as an anti join, i.e. NOT EXISTS
// semantics).
package compile

import (
	"fmt"
	"maps"
	"strings"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlparse"
	"sqlprogress/internal/sqlval"
)

// Compile parses nothing: it takes an AST and a catalog and returns an
// executable plan.
func Compile(cat *catalog.Catalog, sel *sqlparse.Select) (exec.Operator, error) {
	c := &compiler{cat: cat, b: plan.NewBuilder(cat), keep: statementColumns(sel)}
	n, err := c.compileSelect(sel)
	if err != nil {
		return nil, err
	}
	return n.Op, nil
}

// CompileSQL parses and compiles a SQL string.
func CompileSQL(cat *catalog.Catalog, sql string) (exec.Operator, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Compile(cat, sel)
}

type compiler struct {
	cat     *catalog.Catalog
	b       *plan.Builder
	aliases map[string]string // alias (lower) -> base table name
	keep    plan.Columns      // names the statement reads; nil = all (SELECT *)
}

// joinStep is how one FROM entry joins the tables placed before it: its
// equi-join keys (none: a cross join) — left on the tables placed before,
// right on the entry — and the predicates they come from, and the predicates
// evaluated in the entry's own scan.
type joinStep struct {
	left, right []string
	on          []sqlparse.Node
	filter      []sqlparse.Node
}

// fromEntry is one flattened FROM element.
type fromEntry struct {
	table, alias string
	joinKind     string // "", "inner", "left"
	on           sqlparse.Node
}

func (c *compiler) compileSelect(sel *sqlparse.Select) (plan.Node, error) {
	node, err := c.buildFromWhere(sel)
	if err != nil {
		return plan.Node{}, err
	}

	// Collect aggregates from the select list, HAVING and ORDER BY.
	aggs := collectAggs(sel)
	grouped := len(sel.GroupBy) > 0 || len(aggs) > 0

	// rewrites maps computed sub-expressions (aggregates, group-by
	// expressions) to the output columns carrying them above the
	// aggregation.
	var rewrites []rewrite
	if grouped {
		node, rewrites, err = c.buildAggregation(node, sel, aggs)
		if err != nil {
			return plan.Node{}, err
		}
		if sel.Having != nil {
			having := rewriteRefs(sel.Having, rewrites)
			var convErr error
			node = node.Filter(0.5, func(s *schema.Schema) expr.Expr {
				e, _, cerr := c.convert(s, having)
				if cerr != nil {
					convErr = cerr
					return expr.Literal(sqlval.Bool(true))
				}
				return e
			})
			if convErr != nil {
				return plan.Node{}, fmt.Errorf("HAVING: %w", convErr)
			}
		}
	}

	pre := node
	post, err := c.buildProjection(pre, sel, rewrites, grouped)
	if err != nil {
		return plan.Node{}, err
	}
	if sel.Distinct {
		post = post.Wrap(exec.NewDistinct(post.Op), post.Est()/2)
	}

	node = post
	if len(sel.OrderBy) > 0 {
		resolve := func(sch *schema.Schema) ([]exec.SortKey, error) {
			keys := make([]exec.SortKey, len(sel.OrderBy))
			for i, term := range sel.OrderBy {
				e, _, err := c.convert(sch, rewriteRefs(term.Expr, rewrites))
				if err != nil {
					return nil, err
				}
				keys[i] = exec.SortKey{Expr: e, Desc: term.Desc}
			}
			return keys, nil
		}
		// Prefer sorting the projected output (aliases resolve there); fall
		// back to sorting before projection for terms the projection drops
		// (e.g. ORDER BY COUNT(*) with the count not selected).
		if keys, rerr := resolve(post.Schema()); rerr == nil {
			node = post.SortKeys(keys...)
		} else if keys, rerr2 := resolve(pre.Schema()); rerr2 == nil {
			sorted := pre.SortKeys(keys...)
			node, err = c.buildProjection(sorted, sel, rewrites, grouped)
			if err != nil {
				return plan.Node{}, err
			}
			if sel.Distinct {
				// Distinct streams in input order, so the sort survives.
				node = node.Wrap(exec.NewDistinct(node.Op), node.Est()/2)
			}
		} else {
			return plan.Node{}, fmt.Errorf("ORDER BY: %w", rerr)
		}
	}
	if sel.Limit >= 0 {
		node = node.Top(sel.Limit)
	}
	return node, nil
}

// --- FROM / WHERE ---------------------------------------------------------------

func (c *compiler) buildFromWhere(sel *sqlparse.Select) (plan.Node, error) {
	entries, err := c.flattenFrom(sel)
	if err != nil {
		return plan.Node{}, err
	}

	conjuncts := splitAnd(sel.Where)
	// Explicit inner-join ON conditions join the shared conjunct pool;
	// left joins keep theirs (outer semantics).
	for _, e := range entries {
		if e.joinKind == "inner" && e.on != nil {
			conjuncts = append(conjuncts, splitAnd(e.on)...)
		}
	}

	perTable := map[string][]sqlparse.Node{} // table name -> pushable predicates
	var joins []sqlparse.Node                // equi-joins between tables
	var subs []sqlparse.Node                 // EXISTS / IN-subquery conjuncts
	var residual []sqlparse.Node

	for _, cj := range conjuncts {
		switch n := cj.(type) {
		case *sqlparse.ExistsNode:
			subs = append(subs, cj)
			continue
		case *sqlparse.NotNode:
			if _, ok := n.E.(*sqlparse.ExistsNode); ok {
				subs = append(subs, cj)
				continue
			}
		case *sqlparse.InNode:
			if n.Sub != nil {
				subs = append(subs, cj)
				continue
			}
		}
		tables, joinEq := c.classify(cj, entries)
		switch {
		case joinEq:
			joins = append(joins, cj)
		case len(tables) == 1:
			var only string
			for t := range tables {
				only = t
			}
			perTable[only] = append(perTable[only], cj)
		default:
			residual = append(residual, cj)
		}
	}

	scan := func(e fromEntry, preds []sqlparse.Node) (plan.Node, error) {
		if len(preds) == 0 {
			return c.b.Scan(e.table, c.keep), nil
		}
		var convErr error
		n := c.b.ScanFiltered(e.table, selGuess(len(preds)), func(s *schema.Schema) expr.Expr {
			parts := make([]expr.Expr, 0, len(preds))
			for _, p := range preds {
				e, _, err := c.convert(s, p)
				if err != nil {
					convErr = err
					return expr.Literal(sqlval.Bool(true))
				}
				parts = append(parts, e)
			}
			return expr.And(parts...)
		}, c.keep)
		return n, convErr
	}

	// Every join's keys are decided before anything is built: what a join
	// emits depends on the joins placed after it.
	steps := make([]joinStep, len(entries))
	placed := map[string]bool{strings.ToLower(entries[0].table): true}
	usedJoin := make([]bool, len(joins))
	for i, e := range entries[1:] {
		tl := strings.ToLower(e.table)
		if placed[tl] {
			return plan.Node{}, fmt.Errorf("compile: table %s appears twice (self-joins are not supported)", e.table)
		}
		st := &steps[i+1]
		if e.joinKind == "left" {
			// An ON conjunct on the joined table alone goes into its scan:
			// a row it rejects matches nothing, as the outer join requires.
			for _, cj := range splitAnd(e.on) {
				if pc, bc := c.equiKeys([]sqlparse.Node{cj}, placed, tl); len(pc) > 0 {
					st.left = append(st.left, pc...)
					st.right = append(st.right, bc...)
					st.on = append(st.on, cj)
				} else if tables, _ := c.classify(cj, entries); len(tables) == 1 && tables[tl] {
					st.filter = append(st.filter, cj)
				} else {
					return plan.Node{}, fmt.Errorf("compile: LEFT JOIN %s: ON condition %s is neither an equi-join nor on %s alone", e.table, cj, e.table)
				}
			}
			if len(st.left) == 0 {
				return plan.Node{}, fmt.Errorf("compile: LEFT JOIN %s requires an equi-join ON condition", e.table)
			}
		} else {
			st.filter = perTable[tl]
			for j, cj := range joins {
				if usedJoin[j] {
					continue
				}
				if pc, bc := c.equiKeys([]sqlparse.Node{cj}, placed, tl); len(pc) > 0 {
					st.left = append(st.left, pc...)
					st.right = append(st.right, bc...)
					st.on = append(st.on, cj)
					usedJoin[j] = true
				}
			}
		}
		placed[tl] = true
	}
	// Unused join conjuncts (e.g. cycles in the join graph) and residual
	// predicates become explicit filters, and so do the WHERE conjuncts on
	// a LEFT-joined table: they may not go below the join, which would
	// keep the rows they reject as NULL-padded ones.
	for i, j := range joins {
		if !usedJoin[i] {
			residual = append(residual, j)
		}
	}
	for _, e := range entries[1:] {
		if e.joinKind == "left" {
			residual = append(residual, perTable[strings.ToLower(e.table)]...)
		}
	}
	emit := joinOutputs(sel, steps, residual, subs)

	cur, err := scan(entries[0], perTable[strings.ToLower(entries[0].table)])
	if err != nil {
		return plan.Node{}, err
	}
	for i, e := range entries[1:] {
		st := steps[i+1]
		right, err := scan(e, st.filter)
		if err != nil {
			return plan.Node{}, err
		}
		switch {
		case e.joinKind == "left":
			cur = cur.HashJoinMulti(right, st.left, st.right, exec.LeftOuterJoin, emit[i+1])
		case len(st.left) == 0:
			// No connecting predicate: cross join via nested loops.
			cur = c.b.Cross(cur, right)
		case exec.PlanRowBounds(cur.Op).UB < exec.PlanRowBounds(right.Op).UB:
			// The side that can deliver fewer rows builds; the columns stay
			// in FROM order either way.
			cur = cur.HashJoinProbedBy(right, st.left, st.right, emit[i+1])
		default:
			cur = cur.HashJoinMulti(right, st.left, st.right, exec.InnerJoin, emit[i+1])
		}
	}

	if len(residual) > 0 {
		preds := residual
		var convErr error
		cur = cur.Filter(selGuess(len(preds)), func(s *schema.Schema) expr.Expr {
			parts := make([]expr.Expr, 0, len(preds))
			for _, p := range preds {
				e, _, err := c.convert(s, p)
				if err != nil {
					convErr = err
					return expr.Literal(sqlval.Bool(true))
				}
				parts = append(parts, e)
			}
			return expr.And(parts...)
		})
		if convErr != nil {
			return plan.Node{}, convErr
		}
	}

	for _, s := range subs {
		var err error
		cur, err = c.applySubquery(cur, s)
		if err != nil {
			return plan.Node{}, err
		}
	}
	return cur, nil
}

// selGuess scales the default selectivity guess by conjunct count.
func selGuess(n int) float64 {
	s := 1.0
	for i := 0; i < n && i < 3; i++ {
		s /= 3
	}
	return s
}

// flattenFrom validates aliases and flattens comma entries and explicit
// joins into placement order.
func (c *compiler) flattenFrom(sel *sqlparse.Select) ([]fromEntry, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("compile: empty FROM")
	}
	c.aliases = map[string]string{}
	var out []fromEntry
	add := func(table, alias, kind string, on sqlparse.Node) error {
		// Resolve through the storage seam: a scanned table may be an
		// in-memory relation or a disk-backed store (pager heap file).
		if _, err := c.cat.Store(table); err != nil {
			return err
		}
		if alias != "" {
			key := strings.ToLower(alias)
			if prev, ok := c.aliases[key]; ok && !strings.EqualFold(prev, table) {
				return fmt.Errorf("compile: duplicate alias %q", alias)
			}
			c.aliases[key] = table
		}
		out = append(out, fromEntry{table: table, alias: alias, joinKind: kind, on: on})
		return nil
	}
	for _, ref := range sel.From {
		if err := add(ref.Table, ref.Alias, "", nil); err != nil {
			return nil, err
		}
		for _, j := range ref.Joins {
			if err := add(j.Table, j.Alias, j.Kind, j.On); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// classify returns the base tables a conjunct touches, and whether it is a
// two-table equality usable as a join predicate.
func (c *compiler) classify(n sqlparse.Node, entries []fromEntry) (map[string]bool, bool) {
	tables := map[string]bool{}
	walkExpr(n, func(col *sqlparse.ColNode) {
		if tbl := c.resolveTable(col); tbl != "" {
			tables[strings.ToLower(tbl)] = true
		}
	}, nil)
	if b, ok := n.(*sqlparse.BinNode); ok && b.Op == "=" && len(tables) == 2 {
		_, lIsCol := b.L.(*sqlparse.ColNode)
		_, rIsCol := b.R.(*sqlparse.ColNode)
		if lIsCol && rIsCol {
			return tables, true
		}
	}
	return tables, false
}

// walkExpr calls col on every column reference in the expression and, when
// sub is non-nil, sub on every nested EXISTS / IN sub-select.
func walkExpr(n sqlparse.Node, col func(*sqlparse.ColNode), sub func(*sqlparse.Select)) {
	walk := func(n sqlparse.Node) { walkExpr(n, col, sub) }
	switch t := n.(type) {
	case *sqlparse.ColNode:
		col(t)
	case *sqlparse.BinNode:
		walk(t.L)
		walk(t.R)
	case *sqlparse.NotNode:
		walk(t.E)
	case *sqlparse.LikeNode:
		walk(t.E)
	case *sqlparse.InNode:
		walk(t.E)
		for _, e := range t.List {
			walk(e)
		}
		if t.Sub != nil && sub != nil {
			sub(t.Sub)
		}
	case *sqlparse.ExistsNode:
		if sub != nil {
			sub(t.Sub)
		}
	case *sqlparse.BetweenNode:
		walk(t.E)
		walk(t.Lo)
		walk(t.Hi)
	case *sqlparse.IsNullNode:
		walk(t.E)
	case *sqlparse.CaseNode:
		for _, w := range t.Whens {
			walk(w.Cond)
			walk(w.Result)
		}
		if t.Else != nil {
			walk(t.Else)
		}
	case *sqlparse.AggNode:
		if t.Arg != nil {
			walk(t.Arg)
		}
	case *sqlparse.FuncNode:
		for _, a := range t.Args {
			walk(a)
		}
	}
}

// statementColumns returns the lower-cased name of every column the
// statement mentions anywhere — select list, ON, WHERE, GROUP BY, HAVING,
// ORDER BY, and the same clauses of nested sub-selects, so a correlated
// reference to an outer column is covered — or nil when the select list has
// a * item. Scans of disk-backed tables keep a column iff its name is in the
// set. Joins get a narrower set each, from the same walk taken clause by
// clause (joinOutputs): a scan sits below every clause, a join only below
// some. Either way a kept name keeps every column carrying it, and binding
// is by name, so every expression resolves as against the full-width row. A
// * inside a sub-select ranges over the sub-select's own table, of which a
// semi or anti join reads only what the sub-select's WHERE names, and widens
// nothing outside it.
func statementColumns(sel *sqlparse.Select) plan.Columns {
	if selectsStar(sel) {
		return nil
	}
	keep := plan.Columns{}
	readSelect(keep, sel)
	return keep
}

// joinOutputs returns, per FROM entry, the names its join must emit: those
// read by something evaluated above that join — the clauses above every
// join (readAboveJoins), the residual and sub-select conjuncts, and the
// predicates of the joins placed after it. The first entry (no join) gets
// nil, and under SELECT * so does every entry: full width.
func joinOutputs(sel *sqlparse.Select, steps []joinStep, residual, subs []sqlparse.Node) []plan.Columns {
	out := make([]plan.Columns, len(steps))
	if selectsStar(sel) {
		return out
	}
	live := plan.Columns{}
	readAboveJoins(live, sel)
	for _, n := range residual {
		readNames(live, n)
	}
	for _, n := range subs {
		readNames(live, n)
	}
	for i := len(steps) - 1; i > 0; i-- {
		out[i] = maps.Clone(live)
		for _, n := range steps[i].on {
			readNames(live, n)
		}
	}
	return out
}

// selectsStar reports whether the select list has a * item.
func selectsStar(sel *sqlparse.Select) bool {
	for _, item := range sel.Items {
		if item.Star {
			return true
		}
	}
	return false
}

// readAboveJoins adds the names read by the clauses evaluated above every
// join: the select list, GROUP BY, HAVING and ORDER BY.
func readAboveJoins(keep plan.Columns, sel *sqlparse.Select) {
	for _, item := range sel.Items {
		readNames(keep, item.Expr)
	}
	for _, g := range sel.GroupBy {
		readNames(keep, g)
	}
	readNames(keep, sel.Having)
	for _, o := range sel.OrderBy {
		readNames(keep, o.Expr)
	}
}

// readSelect adds the names every clause of sel reads (a * item adds none).
func readSelect(keep plan.Columns, sel *sqlparse.Select) {
	readNames(keep, sel.Where)
	for _, ref := range sel.From {
		for _, j := range ref.Joins {
			readNames(keep, j.On)
		}
	}
	readAboveJoins(keep, sel)
}

// readNames adds the lower-cased name of every column n mentions, and of
// every column any clause of a sub-select nested in n mentions. With
// readSelect it is the one walk that says what a statement reads.
func readNames(keep plan.Columns, n sqlparse.Node) {
	if n != nil {
		walkExpr(n, func(col *sqlparse.ColNode) { keep[strings.ToLower(col.Name)] = true },
			func(sub *sqlparse.Select) { readSelect(keep, sub) })
	}
}

// resolveTable finds the base table a column reference belongs to. It
// resolves an explicit qualifier through the alias map, or searches the
// catalog for an unqualified name.
func (c *compiler) resolveTable(col *sqlparse.ColNode) string {
	if col.Table != "" {
		if t, ok := c.aliases[strings.ToLower(col.Table)]; ok {
			return t
		}
		return col.Table
	}
	found := ""
	for _, t := range c.cat.TableNames() {
		st, err := c.cat.Store(t)
		if err != nil {
			continue
		}
		if i, err := st.Schema().ColIndex("", col.Name); err == nil && i >= 0 {
			if found != "" {
				return "" // ambiguous
			}
			found = t
		}
	}
	return found
}

// equiKeys extracts probe/build key column names from conjuncts that
// equate a placed table's column with newTable's column.
func (c *compiler) equiKeys(conjuncts []sqlparse.Node, placed map[string]bool, newTable string) (probe, build []string) {
	for _, cj := range conjuncts {
		b, ok := cj.(*sqlparse.BinNode)
		if !ok || b.Op != "=" {
			continue
		}
		l, lok := b.L.(*sqlparse.ColNode)
		r, rok := b.R.(*sqlparse.ColNode)
		if !lok || !rok {
			continue
		}
		lt := strings.ToLower(c.resolveTable(l))
		rt := strings.ToLower(c.resolveTable(r))
		switch {
		case placed[lt] && rt == newTable:
			probe = append(probe, l.Name)
			build = append(build, r.Name)
		case placed[rt] && lt == newTable:
			probe = append(probe, r.Name)
			build = append(build, l.Name)
		}
	}
	return probe, build
}
