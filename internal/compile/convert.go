package compile

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlparse"
	"sqlprogress/internal/sqlval"
)

// splitAnd flattens a conjunction into its conjuncts (nil -> empty).
func splitAnd(n sqlparse.Node) []sqlparse.Node {
	if n == nil {
		return nil
	}
	if b, ok := n.(*sqlparse.BinNode); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sqlparse.Node{n}
}

// convert lowers an AST expression to an executable expression against the
// given schema, returning the inferred result kind.
func (c *compiler) convert(sch *schema.Schema, n sqlparse.Node) (expr.Expr, sqlval.Kind, error) {
	switch t := n.(type) {
	case *sqlparse.ColNode:
		qual := c.outerQualifier(t)
		i, err := sch.ColIndex(qual, t.Name)
		if err != nil {
			return nil, 0, err
		}
		if i < 0 && qual != "" {
			// A derived column — an aggregate, a computed or renamed select
			// item — has no table, and a qualified reference may name it.
			// A column with a table is another table's namesake: never it.
			i, err = derived(sch).ColIndex("", t.Name)
			if err != nil {
				return nil, 0, err
			}
		}
		if i < 0 {
			return nil, 0, fmt.Errorf("compile: unknown column %s in %s", t, sch)
		}
		return expr.Col{Index: i, DisplayName: t.String()}, sch.Columns[i].Type, nil

	case *sqlparse.IntNode:
		return expr.Literal(sqlval.Int(t.V)), sqlval.KindInt, nil
	case *sqlparse.FloatNode:
		return expr.Literal(sqlval.Float(t.V)), sqlval.KindFloat, nil
	case *sqlparse.StringNode:
		return expr.Literal(sqlval.String(t.V)), sqlval.KindString, nil
	case *sqlparse.BoolNode:
		return expr.Literal(sqlval.Bool(t.V)), sqlval.KindBool, nil
	case *sqlparse.NullNode:
		return expr.Literal(sqlval.Null()), sqlval.KindNull, nil
	case *sqlparse.DateNode:
		tm, err := time.Parse("2006-01-02", t.Text)
		if err != nil {
			return nil, 0, fmt.Errorf("compile: bad date literal %q", t.Text)
		}
		return expr.Literal(sqlval.DateFromTime(tm)), sqlval.KindDate, nil

	case *sqlparse.BinNode:
		l, lk, err := c.convert(sch, t.L)
		if err != nil {
			return nil, 0, err
		}
		r, rk, err := c.convert(sch, t.R)
		if err != nil {
			return nil, 0, err
		}
		switch t.Op {
		case "AND":
			return expr.And(l, r), sqlval.KindBool, nil
		case "OR":
			return expr.Or(l, r), sqlval.KindBool, nil
		case "=", "<>", "<", "<=", ">", ">=":
			return expr.Compare(cmpOp(t.Op), l, r), sqlval.KindBool, nil
		case "+", "-", "*", "/":
			kind := sqlval.KindInt
			if t.Op == "/" || lk == sqlval.KindFloat || rk == sqlval.KindFloat {
				kind = sqlval.KindFloat
			}
			return expr.NewArith(arithOp(t.Op), l, r), kind, nil
		}
		return nil, 0, fmt.Errorf("compile: unknown operator %q", t.Op)

	case *sqlparse.NotNode:
		e, _, err := c.convert(sch, t.E)
		if err != nil {
			return nil, 0, err
		}
		return expr.Not{E: e}, sqlval.KindBool, nil

	case *sqlparse.LikeNode:
		e, _, err := c.convert(sch, t.E)
		if err != nil {
			return nil, 0, err
		}
		return expr.Like{E: e, Pattern: t.Pattern, Negate: t.Negate}, sqlval.KindBool, nil

	case *sqlparse.InNode:
		if t.Sub != nil {
			return nil, 0, fmt.Errorf("compile: IN (SELECT ...) is only supported as a top-level WHERE conjunct")
		}
		e, _, err := c.convert(sch, t.E)
		if err != nil {
			return nil, 0, err
		}
		list := make([]expr.Expr, len(t.List))
		for i, item := range t.List {
			le, _, err := c.convert(sch, item)
			if err != nil {
				return nil, 0, err
			}
			list[i] = le
		}
		var out expr.Expr = expr.InList{E: e, List: list}
		if t.Negate {
			out = expr.Not{E: out}
		}
		return out, sqlval.KindBool, nil

	case *sqlparse.BetweenNode:
		e, _, err := c.convert(sch, t.E)
		if err != nil {
			return nil, 0, err
		}
		lo, _, err := c.convert(sch, t.Lo)
		if err != nil {
			return nil, 0, err
		}
		hi, _, err := c.convert(sch, t.Hi)
		if err != nil {
			return nil, 0, err
		}
		var out expr.Expr = expr.And(
			expr.Compare(expr.GE, e, lo),
			expr.Compare(expr.LE, e, hi))
		if t.Negate {
			out = expr.Not{E: out}
		}
		return out, sqlval.KindBool, nil

	case *sqlparse.IsNullNode:
		e, _, err := c.convert(sch, t.E)
		if err != nil {
			return nil, 0, err
		}
		return expr.IsNull{E: e, Negate: t.Negate}, sqlval.KindBool, nil

	case *sqlparse.CaseNode:
		out := expr.Case{}
		var kind sqlval.Kind = sqlval.KindNull
		for _, w := range t.Whens {
			cond, _, err := c.convert(sch, w.Cond)
			if err != nil {
				return nil, 0, err
			}
			res, rk, err := c.convert(sch, w.Result)
			if err != nil {
				return nil, 0, err
			}
			if kind == sqlval.KindNull {
				kind = rk
			}
			out.Whens = append(out.Whens, expr.When{Cond: cond, Result: res})
		}
		if t.Else != nil {
			e, ek, err := c.convert(sch, t.Else)
			if err != nil {
				return nil, 0, err
			}
			if kind == sqlval.KindNull {
				kind = ek
			}
			out.Else = e
		}
		return out, kind, nil

	case *sqlparse.FuncNode:
		args := make([]expr.Expr, len(t.Args))
		for i, a := range t.Args {
			e, _, err := c.convert(sch, a)
			if err != nil {
				return nil, 0, err
			}
			args[i] = e
		}
		fc, kind, err := expr.NewFuncCall(t.Name, args)
		if err != nil {
			return nil, 0, err
		}
		return fc, kind, nil

	case *sqlparse.AggNode:
		// Aggregates reach convert only after rewriteAggRefs replaced them
		// with output-column references; a bare aggregate here is misplaced.
		return nil, 0, fmt.Errorf("compile: aggregate %s outside an aggregation context", t)

	case *sqlparse.ExistsNode:
		return nil, 0, fmt.Errorf("compile: EXISTS is only supported as a top-level WHERE conjunct")
	}
	return nil, 0, fmt.Errorf("compile: unsupported expression %T", n)
}

// derived returns sch with every column that has a table renamed away, so
// a lookup in it finds only derived columns, at their indexes in sch.
func derived(sch *schema.Schema) *schema.Schema {
	cols := slices.Clone(sch.Columns)
	for i := range cols {
		if cols[i].Table != "" {
			cols[i].Name = ""
		}
	}
	return schema.New(cols...)
}

func cmpOp(op string) expr.CmpOp {
	switch op {
	case "=":
		return expr.EQ
	case "<>":
		return expr.NE
	case "<":
		return expr.LT
	case "<=":
		return expr.LE
	case ">":
		return expr.GT
	default:
		return expr.GE
	}
}

func arithOp(op string) expr.ArithOp {
	switch op {
	case "+":
		return expr.AddOp
	case "-":
		return expr.SubOp
	case "*":
		return expr.MulOp
	default:
		return expr.DivOp
	}
}

// --- aggregation ------------------------------------------------------------------

// aggRef is one distinct aggregate appearing anywhere in the query, with
// the output column name it is computed under.
type aggRef struct {
	node *sqlparse.AggNode
	name string
}

// collectAggs gathers the distinct aggregates of the select list, HAVING
// and ORDER BY, naming them agg0, agg1, ... (select-list aliases win).
func collectAggs(sel *sqlparse.Select) []aggRef {
	var out []aggRef
	seen := map[string]int{}
	add := func(a *sqlparse.AggNode, alias string) {
		key := a.String()
		if i, ok := seen[key]; ok {
			if alias != "" && strings.HasPrefix(out[i].name, "agg") {
				out[i].name = alias
			}
			return
		}
		name := alias
		if name == "" {
			name = fmt.Sprintf("agg%d", len(out))
		}
		seen[key] = len(out)
		out = append(out, aggRef{node: a, name: name})
	}
	var walk func(n sqlparse.Node, alias string)
	walk = func(n sqlparse.Node, alias string) {
		switch t := n.(type) {
		case *sqlparse.AggNode:
			add(t, alias)
		case *sqlparse.BinNode:
			walk(t.L, "")
			walk(t.R, "")
		case *sqlparse.NotNode:
			walk(t.E, "")
		case *sqlparse.FuncNode:
			for _, a := range t.Args {
				walk(a, "")
			}
		case *sqlparse.CaseNode:
			for _, w := range t.Whens {
				walk(w.Cond, "")
				walk(w.Result, "")
			}
			if t.Else != nil {
				walk(t.Else, "")
			}
		}
	}
	for _, item := range sel.Items {
		if item.Expr != nil {
			walk(item.Expr, item.As)
		}
	}
	if sel.Having != nil {
		walk(sel.Having, "")
	}
	for _, o := range sel.OrderBy {
		walk(o.Expr, "")
	}
	return out
}

// rewrite maps an expression (by its rendered form) to the output column
// carrying its value above an aggregation.
type rewrite struct {
	match, name string
}

// rewriteRefs replaces any subtree matching a rewrite with a reference to
// the carrying column; expressions above an aggregation are rewritten this
// way before conversion.
func rewriteRefs(n sqlparse.Node, rs []rewrite) sqlparse.Node {
	if n == nil {
		return nil
	}
	str := n.String()
	for _, r := range rs {
		if str == r.match {
			return &sqlparse.ColNode{Name: r.name}
		}
	}
	switch t := n.(type) {
	case *sqlparse.BinNode:
		return &sqlparse.BinNode{Op: t.Op, L: rewriteRefs(t.L, rs), R: rewriteRefs(t.R, rs)}
	case *sqlparse.NotNode:
		return &sqlparse.NotNode{E: rewriteRefs(t.E, rs)}
	case *sqlparse.FuncNode:
		out := &sqlparse.FuncNode{Name: t.Name}
		for _, a := range t.Args {
			out.Args = append(out.Args, rewriteRefs(a, rs))
		}
		return out
	case *sqlparse.CaseNode:
		out := &sqlparse.CaseNode{}
		for _, w := range t.Whens {
			out.Whens = append(out.Whens, sqlparse.CaseWhen{
				Cond:   rewriteRefs(w.Cond, rs),
				Result: rewriteRefs(w.Result, rs),
			})
		}
		if t.Else != nil {
			out.Else = rewriteRefs(t.Else, rs)
		}
		return out
	}
	return n
}

// buildAggregation lowers GROUP BY + aggregates onto a HashAgg (or a scalar
// StreamAgg), returning the rewrites that map group expressions and
// aggregates to their output columns.
func (c *compiler) buildAggregation(node plan.Node, sel *sqlparse.Select, aggs []aggRef) (plan.Node, []rewrite, error) {
	// Select-list aliases may be referenced by GROUP BY (a common SQL
	// extension): expand them first.
	aliasExpr := map[string]sqlparse.Node{}
	for _, item := range sel.Items {
		if item.As != "" && item.Expr != nil {
			aliasExpr[strings.ToLower(item.As)] = item.Expr
		}
	}

	var rewrites []rewrite
	var groupCols []int // indexes into the (pre-projected) input
	var preExprs []expr.Expr
	var preNames []string
	var preKinds []sqlval.Kind
	needsPre := false

	// Pass through every input column (so aggregate args still resolve),
	// then append computed group columns.
	for i, col := range node.Schema().Columns {
		preExprs = append(preExprs, expr.Col{Index: i, DisplayName: col.QualifiedName()})
		preNames = append(preNames, col.Name)
		preKinds = append(preKinds, col.Type)
	}
	for gi, g := range sel.GroupBy {
		name := ""
		if col, ok := g.(*sqlparse.ColNode); ok {
			if sub, isAlias := aliasExpr[strings.ToLower(col.Name)]; isAlias && col.Table == "" {
				// GROUP BY <alias>: group on the aliased expression, named
				// after the alias.
				g = sub
				name = col.Name
			}
		}
		e, k, err := c.convert(node.Schema(), g)
		if err != nil {
			return plan.Node{}, nil, fmt.Errorf("GROUP BY: %w", err)
		}
		if col, ok := e.(expr.Col); ok && name == "" {
			// A plain column, resolved with its qualifier; the
			// pre-projection passes it through at the same index.
			groupCols = append(groupCols, col.Index)
			continue
		}
		if name == "" {
			name = fmt.Sprintf("groupexpr%d", gi)
		}
		groupCols = append(groupCols, len(preExprs))
		preExprs = append(preExprs, e)
		preNames = append(preNames, name)
		preKinds = append(preKinds, k)
		rewrites = append(rewrites, rewrite{match: g.String(), name: name})
		needsPre = true
	}
	if needsPre {
		node = node.Project(preExprs, preNames, preKinds)
	}

	var computed []expr.Agg
	for _, a := range aggs {
		ag := expr.Agg{Name: a.name}
		switch {
		case a.node.Star:
			ag.Kind = expr.AggCountStar
		default:
			arg, _, err := c.convert(node.Schema(), a.node.Arg)
			if err != nil {
				return plan.Node{}, nil, fmt.Errorf("aggregate %s: %w", a.node, err)
			}
			ag.Arg = arg
			switch a.node.Func {
			case "COUNT":
				ag.Kind = expr.AggCount
			case "SUM":
				ag.Kind = expr.AggSum
			case "AVG":
				ag.Kind = expr.AggAvg
			case "MIN":
				ag.Kind = expr.AggMin
			case "MAX":
				ag.Kind = expr.AggMax
			}
		}
		computed = append(computed, ag)
		rewrites = append(rewrites, rewrite{match: a.node.String(), name: a.name})
	}

	if len(groupCols) == 0 {
		// Scalar aggregation.
		op := exec.NewStreamAgg(node.Op, nil, nil, nil, computed)
		return node.Wrap(op, 1), rewrites, nil
	}
	gb := make([]expr.Expr, len(groupCols))
	names := make([]string, len(groupCols))
	kinds := make([]sqlval.Kind, len(groupCols))
	for i, idx := range groupCols {
		col := node.Schema().Columns[idx]
		gb[i] = expr.Col{Index: idx, DisplayName: col.QualifiedName()}
		names[i] = col.Name
		kinds[i] = col.Type
	}
	op := exec.NewHashAgg(node.Op, gb, names, kinds, computed)
	// Classic guess: a tenth of the input forms distinct groups. dne's
	// driver totals clamp this into the node's hard bounds at runtime.
	return node.Wrap(op, node.Est()/10), rewrites, nil
}

// buildProjection computes the final select list.
func (c *compiler) buildProjection(node plan.Node, sel *sqlparse.Select, rewrites []rewrite, grouped bool) (plan.Node, error) {
	// SELECT * without aggregation: no projection needed.
	if len(sel.Items) == 1 && sel.Items[0].Star && !grouped {
		return node, nil
	}
	var exprs []expr.Expr
	var names []string
	var kinds []sqlval.Kind
	for i, item := range sel.Items {
		if item.Star {
			for j, col := range node.Schema().Columns {
				exprs = append(exprs, expr.Col{Index: j, DisplayName: col.QualifiedName()})
				names = append(names, col.Name)
				kinds = append(kinds, col.Type)
			}
			continue
		}
		ast := item.Expr
		if grouped {
			ast = rewriteRefs(ast, rewrites)
		}
		e, k, err := c.convert(node.Schema(), ast)
		if err != nil {
			return plan.Node{}, fmt.Errorf("select list: %w", err)
		}
		name := item.As
		if name == "" {
			if col, ok := item.Expr.(*sqlparse.ColNode); ok {
				name = col.Name
			} else {
				name = fmt.Sprintf("col%d", i)
			}
		}
		exprs = append(exprs, e)
		names = append(names, name)
		kinds = append(kinds, k)
	}
	return node.Project(exprs, names, kinds), nil
}

// EvalConst evaluates a constant expression (literals, arithmetic, CASE —
// no column references) to a value; INSERT ... VALUES rows use it.
func EvalConst(n sqlparse.Node) (sqlval.Value, error) {
	c := &compiler{aliases: map[string]string{}}
	emptySchema := schema.New()
	e, _, err := c.convert(emptySchema, n)
	if err != nil {
		return sqlval.Null(), err
	}
	return e.Eval(nil), nil
}
