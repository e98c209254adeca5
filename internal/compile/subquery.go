package compile

import (
	"fmt"
	"strings"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlparse"
)

// applySubquery turns an EXISTS / NOT EXISTS / IN (SELECT) / NOT IN
// (SELECT) conjunct into a semi or anti hash join against the compiled
// subquery.
func (c *compiler) applySubquery(cur plan.Node, cj sqlparse.Node) (plan.Node, error) {
	negate := false
	if n, ok := cj.(*sqlparse.NotNode); ok {
		negate = true
		cj = n.E
	}
	switch n := cj.(type) {
	case *sqlparse.ExistsNode:
		return c.applyExists(cur, n.Sub, negate != n.Negate)
	case *sqlparse.InNode:
		if n.Sub == nil {
			return plan.Node{}, fmt.Errorf("compile: internal: IN-list routed to subquery handler")
		}
		return c.applyInSubquery(cur, n, negate != n.Negate)
	}
	return plan.Node{}, fmt.Errorf("compile: unsupported subquery conjunct %s", cj)
}

// applyExists compiles EXISTS (SELECT ... FROM inner WHERE inner.x = outer.y
// AND <inner-only predicates>) into outer SEMI/ANTI-join inner on (y = x).
// The correlation must be a conjunction of equality predicates between one
// inner column and one outer column; remaining conjuncts must be
// inner-only and are pushed into the subquery.
func (c *compiler) applyExists(cur plan.Node, sub *sqlparse.Select, anti bool) (plan.Node, error) {
	if len(sub.From) != 1 || len(sub.From[0].Joins) != 0 {
		return plan.Node{}, fmt.Errorf("compile: EXISTS subquery must have a single table in FROM")
	}
	innerTable := sub.From[0].Table
	// Through the storage seam, like the outer FROM: the inner table may be
	// disk-backed.
	innerStore, err := c.cat.Store(innerTable)
	if err != nil {
		return plan.Node{}, err
	}
	innerAlias := strings.ToLower(sub.From[0].Alias)
	if innerAlias != "" {
		c.aliases[innerAlias] = innerTable
	}

	isInner := func(col *sqlparse.ColNode) bool {
		if col.Table != "" {
			t := strings.ToLower(col.Table)
			return t == innerAlias || strings.EqualFold(col.Table, innerTable)
		}
		i, err := innerStore.Schema().ColIndex("", col.Name)
		return err == nil && i >= 0
	}
	isOuter := func(col *sqlparse.ColNode) bool {
		i, err := cur.Schema().ColIndex(c.outerQualifier(col), col.Name)
		return err == nil && i >= 0
	}

	var outerCols, innerCols []string
	var innerPreds []sqlparse.Node
	for _, cj := range splitAnd(sub.Where) {
		if b, ok := cj.(*sqlparse.BinNode); ok && b.Op == "=" {
			l, lok := b.L.(*sqlparse.ColNode)
			r, rok := b.R.(*sqlparse.ColNode)
			if lok && rok {
				switch {
				case isInner(l) && isOuter(r) && !isInner(r):
					innerCols = append(innerCols, l.Name)
					outerCols = append(outerCols, r.Name)
					continue
				case isInner(r) && isOuter(l) && !isInner(l):
					innerCols = append(innerCols, r.Name)
					outerCols = append(outerCols, l.Name)
					continue
				}
			}
		}
		innerPreds = append(innerPreds, cj)
	}
	if len(outerCols) == 0 {
		return plan.Node{}, fmt.Errorf("compile: EXISTS subquery needs a correlation equality (inner.col = outer.col)")
	}

	inner := c.buildInner(innerTable, innerPreds)
	mode := exec.SemiJoin
	if anti {
		mode = exec.AntiJoin
	}
	return cur.HashJoinMulti(inner, outerCols, innerCols, mode), nil
}

// outerQualifier maps a column's qualifier (possibly an alias) to the base
// table name used in the outer schema.
func (c *compiler) outerQualifier(col *sqlparse.ColNode) string {
	if col.Table == "" {
		return ""
	}
	if t, ok := c.aliases[strings.ToLower(col.Table)]; ok {
		return t
	}
	return col.Table
}

// applyInSubquery compiles expr IN (SELECT col FROM inner WHERE ...) into a
// semi join on expr = col (anti for NOT IN — note this is NOT EXISTS
// semantics; SQL's NULL-propagating NOT IN is intentionally not emulated).
func (c *compiler) applyInSubquery(cur plan.Node, in *sqlparse.InNode, anti bool) (plan.Node, error) {
	outerCol, ok := in.E.(*sqlparse.ColNode)
	if !ok {
		return plan.Node{}, fmt.Errorf("compile: IN (SELECT ...) requires a column on the left")
	}
	sub := in.Sub
	if len(sub.From) != 1 || len(sub.From[0].Joins) != 0 {
		return plan.Node{}, fmt.Errorf("compile: IN subquery must have a single table in FROM")
	}
	if len(sub.Items) != 1 || sub.Items[0].Star {
		return plan.Node{}, fmt.Errorf("compile: IN subquery must select exactly one column")
	}
	innerCol, ok := sub.Items[0].Expr.(*sqlparse.ColNode)
	if !ok {
		return plan.Node{}, fmt.Errorf("compile: IN subquery must select a plain column")
	}
	innerTable := sub.From[0].Table
	if _, err := c.cat.Store(innerTable); err != nil {
		return plan.Node{}, err
	}
	inner := c.buildInner(innerTable, splitAnd(sub.Where))
	mode := exec.SemiJoin
	if anti {
		mode = exec.AntiJoin
	}
	return cur.HashJoinMulti(inner, []string{outerCol.Name}, []string{innerCol.Name}, mode), nil
}

// buildInner scans the subquery's table with its local predicates pushed
// into the scan.
func (c *compiler) buildInner(table string, preds []sqlparse.Node) plan.Node {
	if len(preds) == 0 {
		return c.b.Scan(table, c.keep)
	}
	return c.b.ScanFiltered(table, selGuess(len(preds)), func(s *schema.Schema) expr.Expr {
		parts := make([]expr.Expr, 0, len(preds))
		for _, p := range preds {
			e, _, err := c.convert(s, p)
			if err != nil {
				panic(err)
			}
			parts = append(parts, e)
		}
		return expr.And(parts...)
	}, c.keep)
}
