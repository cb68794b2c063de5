package sql

import (
	"fmt"
	"strconv"
	"strings"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/vtypes"
)

// Planner lowers parsed statements onto the algebra, resolving names
// against the catalog, pushing single-table predicates below joins and
// picking hash-join build sides by estimated cardinality — the slice of
// the Ingres optimizer's work this reproduction needs (histograms feed
// the estimates; see internal/catalog).
type Planner struct {
	Cat *catalog.Catalog
	// Params, when non-nil, substitutes bound values for `?` / `$N`
	// placeholders during lowering (Params[0] binds $1) — the direct
	// execution path DML uses. When nil, placeholders lower to
	// algebra.Param template slots whose kind is inferred from the
	// surrounding expression; algebra.BindParams fills them later
	// without re-planning.
	Params []vtypes.Value
}

// scopeEntry is one table visible in the FROM clause.
type scopeEntry struct {
	alias  string
	table  string
	schema *vtypes.Schema
	offset int // column offset in the join row
}

type scope struct{ entries []scopeEntry }

func (s *scope) width() int {
	n := 0
	for _, e := range s.entries {
		n += e.schema.Len()
	}
	return n
}

// resolve finds a column by (qualifier, name).
func (s *scope) resolve(qual, name string) (int, vtypes.Kind, error) {
	found := -1
	var kind vtypes.Kind
	for _, e := range s.entries {
		if qual != "" && e.alias != qual {
			continue
		}
		if ix := e.schema.ColIndex(name); ix >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sql: ambiguous column %q", name)
			}
			found = e.offset + ix
			kind = e.schema.Col(ix).Kind
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sql: unknown column %q", qualName(qual, name))
	}
	return found, kind, nil
}

func qualName(q, n string) string {
	if q == "" {
		return n
	}
	return q + "." + n
}

// PlanSelect lowers a SELECT onto the algebra. As a final step it runs
// the data-skipping rewrite: sargable single-table conjuncts that
// predicate pushdown placed directly above a scan move into the scan's
// Filters, where the cross-compiler both evaluates them post-
// decompression and derives row-group min/max pruning. Parametrized
// conjuncts keep their Param slots, so a cached plan template prunes
// with each execution's bound values.
func (p *Planner) PlanSelect(s *SelectStmt) (algebra.Node, error) {
	node, err := p.planSelect(s)
	if err != nil {
		return nil, err
	}
	return algebra.PushFiltersIntoScans(node), nil
}

// planSelect lowers a SELECT without the scan-filter rewrite.
func (p *Planner) planSelect(s *SelectStmt) (algebra.Node, error) {
	if len(s.From) != 1 {
		return nil, fmt.Errorf("sql: exactly one FROM table plus JOIN clauses supported")
	}
	sc := &scope{}
	node, err := p.baseScan(s.From[0], sc)
	if err != nil {
		return nil, err
	}

	// Split WHERE into conjuncts for pushdown. Conjuncts containing
	// subqueries are set aside: they become joins (or post-join
	// selections) once the user's joins are in place, and must never
	// be pushed into a scan.
	var conjuncts, subqConjuncts []Expr
	for _, c := range splitConjuncts(s.Where) {
		if containsSubquery(c) {
			subqConjuncts = append(subqConjuncts, c)
		} else {
			conjuncts = append(conjuncts, c)
		}
	}

	// Push single-table conjuncts that only reference the first table
	// down before joins.
	node, conjuncts, err = p.pushdown(node, sc, conjuncts, s.From[0].Alias)
	if err != nil {
		return nil, err
	}

	for _, j := range s.Joins {
		rightSc := &scope{}
		right, err := p.baseScan(j.Table, rightSc)
		if err != nil {
			return nil, err
		}
		// Push right-table-only conjuncts into the build side — except
		// under a LEFT OUTER JOIN, where the WHERE applies after
		// null-extension and pushing it below the join would change
		// which left rows survive. (Semi/anti joins keep the push: the
		// right side never emits columns, so a right-only WHERE
		// conjunct is only satisfiable as a build-side filter.)
		if j.Kind != "left" {
			right, conjuncts, err = p.pushdown(right, rightSc, conjuncts, j.Table.Alias)
			if err != nil {
				return nil, err
			}
		}
		// Resolve keys: left keys against current scope, right keys
		// against the joined table.
		var lkeys, rkeys []algebra.Scalar
		for _, on := range j.On {
			lk, rk, err := p.resolveOn(on, sc, rightSc)
			if err != nil {
				return nil, err
			}
			lkeys = append(lkeys, lk)
			rkeys = append(rkeys, rk)
		}
		var typ algebra.JoinType
		switch j.Kind {
		case "inner":
			typ = algebra.JoinInner
		case "left":
			typ = algebra.JoinLeftOuter
		case "semi":
			typ = algebra.JoinLeftSemi
		case "anti":
			typ = algebra.JoinLeftAnti
		}
		node = &algebra.JoinNode{Left: node, Right: right, LeftKeys: lkeys, RightKeys: rkeys, Type: typ}
		if typ == algebra.JoinInner || typ == algebra.JoinLeftOuter {
			base := sc.width()
			for _, e := range rightSc.entries {
				sc.entries = append(sc.entries, scopeEntry{
					alias: e.alias, table: e.table, schema: e.schema, offset: base + e.offset,
				})
			}
		}
	}

	// Remaining WHERE conjuncts above the joins.
	if len(conjuncts) > 0 {
		pred, err := p.lowerConjuncts(conjuncts, sc)
		if err != nil {
			return nil, err
		}
		node = &algebra.SelectNode{Input: node, Pred: pred}
	}

	// Subquery conjuncts: `x [NOT] IN (SELECT ...)` becomes a
	// semi/anti join against the subplan; scalar subqueries attach via
	// a constant-key cross join and the conjunct then lowers as an
	// ordinary selection over the widened row.
	if len(subqConjuncts) > 0 {
		subqN := 0
		var rewritten []Expr
		for _, c := range subqConjuncts {
			if in := asInSub(c); in != nil {
				node, err = p.planInSubquery(node, sc, in)
				if err != nil {
					return nil, err
				}
				continue
			}
			var rc Expr
			node, rc, err = p.attachScalarSubqueries(node, sc, c, &subqN)
			if err != nil {
				return nil, err
			}
			rewritten = append(rewritten, rc)
		}
		if len(rewritten) > 0 {
			pred, err := p.lowerConjuncts(rewritten, sc)
			if err != nil {
				return nil, err
			}
			node = &algebra.SelectNode{Input: node, Pred: pred}
		}
	}

	// Aggregation?
	hasAgg := len(s.GroupBy) > 0 || containsAgg(s.Having)
	for _, item := range s.Items {
		if !item.Star && containsAgg(item.Expr) {
			hasAgg = true
		}
	}
	if hasAgg {
		return p.planAggregate(s, node, sc)
	}
	if s.Having != nil {
		return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}

	// Plain projection.
	var exprs []algebra.Scalar
	var names []string
	for _, item := range s.Items {
		if item.Star {
			for _, e := range sc.entries {
				for ci := 0; ci < e.schema.Len(); ci++ {
					exprs = append(exprs, &algebra.ColRef{Idx: e.offset + ci, K: e.schema.Col(ci).Kind})
					names = append(names, e.schema.Col(ci).Name)
				}
			}
			continue
		}
		lo, err := p.lower(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, lo)
		names = append(names, itemName(item))
	}
	// ORDER BY resolves against the pre-projection scope (SQL permits
	// sorting on non-projected columns), falling back to select aliases.
	if len(s.OrderBy) > 0 {
		var keys []algebra.SortKey
		for _, o := range s.OrderBy {
			lo, err := p.lower(o.Expr, sc)
			if err != nil {
				if id, ok := o.Expr.(*Ident); ok && id.Qualifier == "" {
					found := false
					for i, n := range names {
						if n == id.Name {
							lo, found = exprs[i], true
							break
						}
					}
					if !found {
						return nil, err
					}
				} else {
					return nil, err
				}
			}
			keys = append(keys, algebra.SortKey{Expr: lo, Desc: o.Desc})
		}
		node = &algebra.SortNode{Input: node, Keys: keys}
	}
	out := algebra.Node(&algebra.ProjectNode{Input: node, Exprs: exprs, Names: names})
	if s.Limit >= 0 {
		out = &algebra.LimitNode{Input: out, N: s.Limit}
	}
	return out, nil
}

// baseScan builds a full-width scan of a table.
func (p *Planner) baseScan(tr TableRef, sc *scope) (algebra.Node, error) {
	tbl, _, err := p.Cat.Resolve(tr.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	cols := make([]int, schema.Len())
	for i := range cols {
		cols[i] = i
	}
	sc.entries = append(sc.entries, scopeEntry{alias: tr.Alias, table: tr.Table, schema: schema, offset: sc.width()})
	return &algebra.ScanNode{Table: tr.Table, Cols: cols, Out: schema.Clone()}, nil
}

// pushdown applies conjuncts referencing only `alias` directly above its
// scan, returning the remaining conjuncts.
func (p *Planner) pushdown(node algebra.Node, sc *scope, conjuncts []Expr, alias string) (algebra.Node, []Expr, error) {
	var local, rest []Expr
	for _, c := range conjuncts {
		if onlyReferences(c, alias, sc) {
			local = append(local, c)
		} else {
			rest = append(rest, c)
		}
	}
	if len(local) == 0 {
		return node, rest, nil
	}
	pred, err := p.lowerConjuncts(local, sc)
	if err != nil {
		return nil, nil, err
	}
	return &algebra.SelectNode{Input: node, Pred: pred}, rest, nil
}

func (p *Planner) lowerConjuncts(cs []Expr, sc *scope) (algebra.Scalar, error) {
	var preds []algebra.Scalar
	for _, c := range cs {
		lo, err := p.lower(c, sc)
		if err != nil {
			return nil, err
		}
		preds = append(preds, lo)
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return &algebra.And{Preds: preds}, nil
}

func (p *Planner) resolveOn(on OnEq, left, right *scope) (algebra.Scalar, algebra.Scalar, error) {
	l, errL := p.lower(on.L, left)
	if errL == nil {
		r, errR := p.lower(on.R, right)
		if errR == nil {
			return l, r, nil
		}
	}
	// Try swapped orientation (ON b.x = a.y).
	l2, err := p.lower(on.R, left)
	if err != nil {
		return nil, nil, fmt.Errorf("sql: cannot resolve join condition")
	}
	r2, err := p.lower(on.L, right)
	if err != nil {
		return nil, nil, fmt.Errorf("sql: cannot resolve join condition")
	}
	return l2, r2, nil
}

// planAggregate lowers GROUP BY / aggregate queries. Select items and
// HAVING may be arbitrary expressions over group-by expressions and
// aggregate calls — e.g. `100.0 * SUM(a) / SUM(b)` — lowered in two
// steps: one AggNode computes the group keys and the distinct aggregates
// of the whole statement under internal names, then every output
// expression is rewritten to reference those columns and lowered as an
// ordinary projection (HAVING becomes a selection between the two).
func (p *Planner) planAggregate(s *SelectStmt, input algebra.Node, sc *scope) (algebra.Node, error) {
	var groupBy []algebra.Scalar
	for _, g := range s.GroupBy {
		lo, err := p.lower(g, sc)
		if err != nil {
			return nil, err
		}
		groupBy = append(groupBy, lo)
	}

	// Collect the distinct aggregate calls across select list and HAVING
	// (dedup by rendered text, so Q14's repeated SUM computes once).
	aggCols := map[string]int{}
	var aggs []algebra.AggExpr
	collect := func(e Expr) error {
		var firstErr error
		walkExprs(e, func(x Expr) {
			a, ok := x.(*AggCall)
			if !ok {
				return
			}
			key := renderExpr(a)
			if _, seen := aggCols[key]; seen {
				return
			}
			ax, err := p.lowerAgg(a, sc)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			aggCols[key] = len(aggs)
			aggs = append(aggs, ax)
		})
		return firstErr
	}
	for _, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: * not allowed with GROUP BY")
		}
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}
	if s.Having != nil {
		if err := collect(s.Having); err != nil {
			return nil, err
		}
	}

	// Internal column names ('#' cannot appear in a lexed identifier, so
	// they can never collide with user names).
	names := make([]string, 0, len(groupBy)+len(aggs))
	for i := range groupBy {
		names = append(names, fmt.Sprintf("#g%d", i))
	}
	for i := range aggs {
		names = append(names, fmt.Sprintf("#a%d", i))
	}
	node := algebra.Node(&algebra.AggNode{Input: input, GroupBy: groupBy, Aggs: aggs, Names: names})
	aggSc := schemaScope(node.Schema())

	// HAVING may compare against an uncorrelated scalar subquery
	// (Q11): attach each one via a constant-key join above the
	// aggregate and substitute its output column into the predicate.
	having := s.Having
	if having != nil && containsSubquery(having) {
		subqN := 0
		var err error
		node, having, err = p.attachScalarSubqueries(node, aggSc, having, &subqN)
		if err != nil {
			return nil, err
		}
	}

	// rewrite maps an AST expression onto the AggNode output: group-by
	// expressions and aggregate calls become references to the internal
	// columns; select aliases (HAVING may name them) substitute the
	// aliased expression. Aggregate arguments are never descended into —
	// they were already lowered against the input scope. expanding
	// tracks alias substitutions in flight so a self-referential alias
	// (`a + 1 AS a`) falls through to normal resolution instead of
	// recursing forever.
	expanding := map[string]bool{}
	var rewrite func(e Expr) Expr
	rewrite = func(e Expr) Expr {
		if g := matchGroupExpr(e, s.GroupBy); g >= 0 {
			return &Ident{Name: names[g]}
		}
		if a, ok := e.(*AggCall); ok {
			if ix, ok := aggCols[renderExpr(a)]; ok {
				return &Ident{Name: names[len(groupBy)+ix]}
			}
			return a
		}
		switch t := e.(type) {
		case *Ident:
			if t.Qualifier == "" && !expanding[t.Name] {
				for _, item := range s.Items {
					if !item.Star && item.Alias == t.Name {
						expanding[t.Name] = true
						out := rewrite(item.Expr)
						delete(expanding, t.Name)
						return out
					}
				}
			}
			return t
		case *BinExpr:
			return &BinExpr{Op: t.Op, L: rewrite(t.L), R: rewrite(t.R)}
		case *NotExpr:
			return &NotExpr{In: rewrite(t.In)}
		case *BetweenExpr:
			return &BetweenExpr{In: rewrite(t.In), Lo: rewrite(t.Lo), Hi: rewrite(t.Hi)}
		case *InExpr:
			list := make([]Expr, len(t.List))
			for i, m := range t.List {
				list[i] = rewrite(m)
			}
			return &InExpr{In: rewrite(t.In), List: list}
		case *LikeExpr:
			return &LikeExpr{In: rewrite(t.In), Pattern: t.Pattern, Negate: t.Negate}
		case *IsNullExpr:
			return &IsNullExpr{In: rewrite(t.In), Negate: t.Negate}
		case *CaseExpr:
			return &CaseExpr{Cond: rewrite(t.Cond), Then: rewrite(t.Then), Else: rewrite(t.Else)}
		case *FuncCall:
			return &FuncCall{Fn: t.Fn, Arg: rewrite(t.Arg)}
		}
		return e
	}

	// HAVING filters the aggregate output before the projection renames
	// and reorders it (equivalent, and it may reference aggregates that
	// the select list drops).
	if having != nil {
		pred, err := p.lower(rewrite(having), aggSc)
		if err != nil {
			return nil, err
		}
		node = &algebra.SelectNode{Input: node, Pred: pred}
	}

	// Projection expressions over the aggregate output, in select order.
	var exprs []algebra.Scalar
	var outNames []string
	for _, item := range s.Items {
		lo, err := p.lower(rewrite(item.Expr), aggSc)
		if err != nil {
			return nil, fmt.Errorf("%w (select items must be built from GROUP BY expressions and aggregates)", err)
		}
		exprs = append(exprs, lo)
		outNames = append(outNames, itemName(item))
	}

	// ORDER BY keys rewrite onto the aggregate output exactly like
	// select items do, and the sort runs between HAVING and the
	// projection (every engine preserves order through a projection) —
	// so keys may be arbitrary expressions over group keys and
	// aggregates, including ones the select list drops. A bare
	// identifier that only names a projected column (`ORDER BY count`)
	// falls back to that column's expression.
	if len(s.OrderBy) > 0 {
		var keys []algebra.SortKey
		for _, o := range s.OrderBy {
			lo, err := p.lower(rewrite(o.Expr), aggSc)
			if err != nil {
				if id, ok := o.Expr.(*Ident); ok && id.Qualifier == "" {
					for i, n := range outNames {
						if n == id.Name {
							lo, err = exprs[i], nil
							break
						}
					}
				}
				if err != nil {
					return nil, err
				}
			}
			keys = append(keys, algebra.SortKey{Expr: lo, Desc: o.Desc})
		}
		node = &algebra.SortNode{Input: node, Keys: keys}
	}
	node = &algebra.ProjectNode{Input: node, Exprs: exprs, Names: outNames}
	if s.Limit >= 0 {
		node = &algebra.LimitNode{Input: node, N: s.Limit}
	}
	return node, nil
}

// schemaScope exposes an output schema as an unqualified scope.
func schemaScope(s *vtypes.Schema) *scope {
	return &scope{entries: []scopeEntry{{alias: "", schema: s}}}
}

// lowerAgg lowers an aggregate call.
func (p *Planner) lowerAgg(a *AggCall, sc *scope) (algebra.AggExpr, error) {
	var fn algebra.AggFn
	switch a.Fn {
	case "SUM":
		fn = algebra.AggSum
	case "COUNT":
		if a.Arg == nil {
			return algebra.AggExpr{Fn: algebra.AggCountStar}, nil
		}
		fn = algebra.AggCount
	case "AVG":
		fn = algebra.AggAvg
	case "MIN":
		fn = algebra.AggMin
	case "MAX":
		fn = algebra.AggMax
	}
	arg, err := p.lower(a.Arg, sc)
	if err != nil {
		return algebra.AggExpr{}, err
	}
	return algebra.AggExpr{Fn: fn, Arg: arg}, nil
}

// lower lowers an AST expression against a scope.
func (p *Planner) lower(e Expr, sc *scope) (algebra.Scalar, error) {
	switch t := e.(type) {
	case *Ident:
		ix, kind, err := sc.resolve(t.Qualifier, t.Name)
		if err != nil {
			return nil, err
		}
		return &algebra.ColRef{Idx: ix, K: kind}, nil
	case *ParamExpr:
		// A placeholder always lowers to a typeless Param slot first;
		// the surrounding expression resolves its kind
		// (resolveParamPair, lowerLit, lowerBoundScalar), and — on the direct
		// execution path (Params set) — the same site materializes the
		// coerced literal, so bound DML sees exactly the values a bound
		// SELECT template would.
		return &algebra.Param{Idx: t.Idx}, nil
	case *NumLit:
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.Text)
			}
			return &algebra.Lit{Val: vtypes.F64Value(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.Text)
		}
		return &algebra.Lit{Val: vtypes.I64Value(n)}, nil
	case *StrLit:
		return &algebra.Lit{Val: vtypes.StrValue(t.Val)}, nil
	case *DateLit:
		d, err := vtypes.ParseDate(t.Val)
		if err != nil {
			return nil, err
		}
		return &algebra.Lit{Val: vtypes.DateValue(d)}, nil
	case *BoolLit:
		return &algebra.Lit{Val: vtypes.BoolValue(t.Val)}, nil
	case *NullLit:
		return &algebra.Lit{Val: vtypes.NullValue(vtypes.KindI64)}, nil
	case *BinExpr:
		l, err := p.lower(t.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := p.lower(t.R, sc)
		if err != nil {
			return nil, err
		}
		if l, r, err = p.resolveParamPair(l, r); err != nil {
			return nil, err
		}
		switch t.Op {
		case "AND":
			return &algebra.And{Preds: []algebra.Scalar{l, r}}, nil
		case "OR":
			return &algebra.Or{Preds: []algebra.Scalar{l, r}}, nil
		case "+", "-", "*", "/", "%":
			op := map[string]algebra.ArithOp{"+": algebra.OpAdd, "-": algebra.OpSub, "*": algebra.OpMul, "/": algebra.OpDiv, "%": algebra.OpMod}[t.Op]
			// Widen int literals beside float columns.
			l, r = widenPair(l, r)
			return algebra.NewArith(op, l, r)
		default:
			op := map[string]algebra.CmpOp{"=": algebra.CmpEq, "<>": algebra.CmpNe, "<": algebra.CmpLt, "<=": algebra.CmpLe, ">": algebra.CmpGt, ">=": algebra.CmpGe}[t.Op]
			l, r = widenPair(l, r)
			return &algebra.Cmp{Op: op, L: l, R: r}, nil
		}
	case *NotExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		return &algebra.Not{In: in}, nil
	case *BetweenExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		lo, err := p.lowerBoundScalar(t.Lo, sc, in.Kind())
		if err != nil {
			return nil, err
		}
		hi, err := p.lowerBoundScalar(t.Hi, sc, in.Kind())
		if err != nil {
			return nil, err
		}
		// Literal bounds take the Between fast path. Anything else —
		// unbound placeholder slots (template path), columns, aggregate
		// outputs — decomposes into a pair of comparisons, which binds
		// and evaluates positionally.
		if loLit, ok := lo.(*algebra.Lit); ok {
			if hiLit, ok := hi.(*algebra.Lit); ok {
				return &algebra.Between{In: in, Lo: loLit.Val, Hi: hiLit.Val}, nil
			}
		}
		return &algebra.And{Preds: []algebra.Scalar{
			&algebra.Cmp{Op: algebra.CmpGe, L: in, R: lo},
			&algebra.Cmp{Op: algebra.CmpLe, L: in, R: hi},
		}}, nil
	case *InExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		members := make([]algebra.Scalar, len(t.List))
		allLit := true
		for i, le := range t.List {
			m, err := p.lowerBoundScalar(le, sc, in.Kind())
			if err != nil {
				return nil, err
			}
			members[i] = m
			if _, ok := m.(*algebra.Lit); !ok {
				allLit = false
			}
		}
		if allLit {
			list := make([]vtypes.Value, len(members))
			for i, m := range members {
				list[i] = m.(*algebra.Lit).Val
			}
			return &algebra.In{In: in, List: list}, nil
		}
		// Non-literal members (placeholder slots, columns, aggregates):
		// decompose into an OR of equalities so each one binds or
		// evaluates positionally.
		preds := make([]algebra.Scalar, len(members))
		for i, m := range members {
			preds[i] = &algebra.Cmp{Op: algebra.CmpEq, L: in, R: m}
		}
		if len(preds) == 1 {
			return preds[0], nil
		}
		return &algebra.Or{Preds: preds}, nil
	case *LikeExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		return &algebra.Like{In: in, Pattern: t.Pattern, Negate: t.Negate}, nil
	case *IsNullExpr:
		in, err := p.lower(t.In, sc)
		if err != nil {
			return nil, err
		}
		return &algebra.IsNull{In: in, Negate: t.Negate}, nil
	case *CaseExpr:
		cond, err := p.lower(t.Cond, sc)
		if err != nil {
			return nil, err
		}
		then, err := p.lower(t.Then, sc)
		if err != nil {
			return nil, err
		}
		el, err := p.lower(t.Else, sc)
		if err != nil {
			return nil, err
		}
		// Widen int literal arms beside float arms so both arms share a
		// storage class (`THEN price ELSE 0`).
		then, el = widenPair(then, el)
		return algebra.NewCase(cond, then, el)
	case *FuncCall:
		arg, err := p.lower(t.Arg, sc)
		if err != nil {
			return nil, err
		}
		if t.Fn == "YEAR" {
			return &algebra.YearOf{In: arg}, nil
		}
		return nil, fmt.Errorf("sql: unknown function %q", t.Fn)
	case *AggCall:
		return nil, fmt.Errorf("sql: aggregate %s not allowed here", t.Fn)
	case *SubqueryExpr:
		return nil, fmt.Errorf("sql: scalar subquery not supported in this position")
	case *InSubExpr:
		return nil, fmt.Errorf("sql: IN (SELECT ...) is only supported as a top-level WHERE conjunct")
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

// resolveParamPair types unresolved parameter slots from their sibling
// operand: in `k = ?` the placeholder adopts k's kind, so binding can
// coerce the argument and the kernels see one storage class. Two
// placeholders compared with each other have no kind source and fail.
// On the direct execution path the typed slot is materialized
// immediately (see materializeParam).
func (p *Planner) resolveParamPair(l, r algebra.Scalar) (algebra.Scalar, algebra.Scalar, error) {
	lp, lok := l.(*algebra.Param)
	rp, rok := r.(*algebra.Param)
	lu := lok && lp.K == vtypes.KindInvalid
	ru := rok && rp.K == vtypes.KindInvalid
	switch {
	case lu && ru:
		return nil, nil, fmt.Errorf("sql: cannot infer types of $%d and $%d compared with each other", lp.Idx, rp.Idx)
	case lu:
		l = &algebra.Param{Idx: lp.Idx, K: r.Kind()}
	case ru:
		r = &algebra.Param{Idx: rp.Idx, K: l.Kind()}
	}
	var err error
	if l, err = p.materializeParam(l); err != nil {
		return nil, nil, err
	}
	if r, err = p.materializeParam(r); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// materializeParam substitutes the bound value for a typed Param slot
// when the planner is on the direct execution path (Params set),
// applying the same coercion BindParams applies to templates. Template
// planning (Params nil) and non-Param scalars pass through.
func (p *Planner) materializeParam(s algebra.Scalar) (algebra.Scalar, error) {
	prm, ok := s.(*algebra.Param)
	if !ok || p.Params == nil {
		return s, nil
	}
	if prm.Idx < 1 || prm.Idx > len(p.Params) {
		return nil, fmt.Errorf("sql: parameter $%d not bound (%d args)", prm.Idx, len(p.Params))
	}
	v, err := algebra.CoerceValue(p.Params[prm.Idx-1], prm.K)
	if err != nil {
		return nil, fmt.Errorf("sql: parameter $%d: %w", prm.Idx, err)
	}
	return &algebra.Lit{Val: v}, nil
}

// lowerBoundScalar lowers a BETWEEN bound or IN member. Placeholder
// slots adopt the probed expression's kind (and bind immediately on the
// direct execution path); literals coerce to it; other scalars —
// columns, aggregate outputs — pass through for the caller's comparison
// decomposition.
func (p *Planner) lowerBoundScalar(e Expr, sc *scope, want vtypes.Kind) (algebra.Scalar, error) {
	lo, err := p.lower(e, sc)
	if err != nil {
		return nil, err
	}
	switch t := lo.(type) {
	case *algebra.Param:
		k := t.K
		if k == vtypes.KindInvalid {
			k = want
		}
		return p.materializeParam(&algebra.Param{Idx: t.Idx, K: k})
	case *algebra.Lit:
		v, err := algebra.CoerceValue(t.Val, want)
		if err != nil {
			return nil, fmt.Errorf("sql: literal %w", err)
		}
		return &algebra.Lit{Val: v}, nil
	}
	return lo, nil
}

// lowerLit lowers an expression that must fold to a literal, coercing
// its kind class to match `want`. Bound placeholders fold to their
// argument value.
func (p *Planner) lowerLit(e Expr, sc *scope, want vtypes.Kind) (vtypes.Value, error) {
	lo, err := p.lower(e, sc)
	if err != nil {
		return vtypes.Value{}, err
	}
	if prm, ok := lo.(*algebra.Param); ok {
		lo, err = p.materializeParam(&algebra.Param{Idx: prm.Idx, K: want})
		if err != nil {
			return vtypes.Value{}, err
		}
	}
	lit, ok := lo.(*algebra.Lit)
	if !ok {
		return vtypes.Value{}, fmt.Errorf("sql: literal required")
	}
	v, err := algebra.CoerceValue(lit.Val, want)
	if err != nil {
		return vtypes.Value{}, fmt.Errorf("sql: literal %w", err)
	}
	return v, nil
}

// widenPair widens int literals next to float expressions so kernels
// compare within one storage class.
func widenPair(l, r algebra.Scalar) (algebra.Scalar, algebra.Scalar) {
	if l.Kind().StorageClass() == vtypes.ClassF64 && r.Kind().StorageClass() == vtypes.ClassI64 {
		if lit, ok := r.(*algebra.Lit); ok {
			return l, &algebra.Lit{Val: vtypes.F64Value(float64(lit.Val.I64))}
		}
	}
	if r.Kind().StorageClass() == vtypes.ClassF64 && l.Kind().StorageClass() == vtypes.ClassI64 {
		if lit, ok := l.(*algebra.Lit); ok {
			return &algebra.Lit{Val: vtypes.F64Value(float64(lit.Val.I64))}, r
		}
	}
	return l, r
}

// splitConjuncts flattens a WHERE tree into ANDed conjuncts.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// onlyReferences reports whether every column in e resolves inside the
// single alias — the test for pushing a WHERE conjunct below a join. A
// column that resolves in another table, or that does not resolve in the
// scope at all (it belongs to a table joined later), blocks the push.
func onlyReferences(e Expr, alias string, sc *scope) bool {
	ok := true
	walkIdents(e, func(id *Ident) {
		if id.Qualifier != "" {
			if id.Qualifier != alias {
				ok = false
			}
			return
		}
		resolved := false
		for _, ent := range sc.entries {
			if ent.schema.ColIndex(id.Name) >= 0 {
				resolved = true
				if ent.alias != alias {
					ok = false
				}
			}
		}
		if !resolved {
			ok = false
		}
	})
	return ok
}

// walkExprs visits e and every sub-expression, including aggregate
// arguments and IN-list members. A nil e is a no-op.
func walkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch t := e.(type) {
	case *BinExpr:
		walkExprs(t.L, fn)
		walkExprs(t.R, fn)
	case *NotExpr:
		walkExprs(t.In, fn)
	case *BetweenExpr:
		walkExprs(t.In, fn)
		walkExprs(t.Lo, fn)
		walkExprs(t.Hi, fn)
	case *InExpr:
		walkExprs(t.In, fn)
		for _, m := range t.List {
			walkExprs(m, fn)
		}
	case *LikeExpr:
		walkExprs(t.In, fn)
	case *IsNullExpr:
		walkExprs(t.In, fn)
	case *CaseExpr:
		walkExprs(t.Cond, fn)
		walkExprs(t.Then, fn)
		walkExprs(t.Else, fn)
	case *AggCall:
		walkExprs(t.Arg, fn)
	case *FuncCall:
		walkExprs(t.Arg, fn)
	case *InSubExpr:
		// The probe side belongs to the outer query; the subquery's
		// internals (its aggregates, idents) do not.
		walkExprs(t.In, fn)
	case *SubqueryExpr:
		// Leaf: nothing inside a scalar subquery belongs to the outer
		// query's scope.
	}
}

func walkIdents(e Expr, fn func(*Ident)) {
	walkExprs(e, func(x Expr) {
		if id, ok := x.(*Ident); ok {
			fn(id)
		}
	})
}

// containsAgg reports whether an expression contains an aggregate call.
func containsAgg(e Expr) bool {
	found := false
	walkExprs(e, func(x Expr) {
		if _, ok := x.(*AggCall); ok {
			found = true
		}
	})
	return found
}

// matchGroupExpr returns the index of the GROUP BY expression textually
// identical to e, or -1.
func matchGroupExpr(e Expr, groups []Expr) int {
	er := renderExpr(e)
	for i, g := range groups {
		if renderExpr(g) == er {
			return i
		}
	}
	return -1
}

// renderExpr canonicalizes an AST expression for matching.
func renderExpr(e Expr) string {
	switch t := e.(type) {
	case *Ident:
		return qualName(t.Qualifier, t.Name)
	case *NumLit:
		return t.Text
	case *ParamExpr:
		return fmt.Sprintf("$%d", t.Idx)
	case *StrLit:
		return "'" + t.Val + "'"
	case *DateLit:
		return "date'" + t.Val + "'"
	case *BoolLit:
		return fmt.Sprintf("%v", t.Val)
	case *NullLit:
		return "null"
	case *BinExpr:
		return "(" + renderExpr(t.L) + t.Op + renderExpr(t.R) + ")"
	case *NotExpr:
		return "not(" + renderExpr(t.In) + ")"
	case *BetweenExpr:
		return "between(" + renderExpr(t.In) + "," + renderExpr(t.Lo) + "," + renderExpr(t.Hi) + ")"
	case *InExpr:
		out := "in(" + renderExpr(t.In)
		for _, m := range t.List {
			out += "," + renderExpr(m)
		}
		return out + ")"
	case *LikeExpr:
		return fmt.Sprintf("like(%s,%q,%v)", renderExpr(t.In), t.Pattern, t.Negate)
	case *IsNullExpr:
		return fmt.Sprintf("isnull(%s,%v)", renderExpr(t.In), t.Negate)
	case *AggCall:
		if t.Arg == nil {
			return t.Fn + "(*)"
		}
		return t.Fn + "(" + renderExpr(t.Arg) + ")"
	case *FuncCall:
		return t.Fn + "(" + renderExpr(t.Arg) + ")"
	case *CaseExpr:
		return "case(" + renderExpr(t.Cond) + "," + renderExpr(t.Then) + "," + renderExpr(t.Else) + ")"
	case *SubqueryExpr:
		return "(" + RenderSelect(t.Sel) + ")"
	case *InSubExpr:
		return fmt.Sprintf("insub(%s,%s,%v)", renderExpr(t.In), RenderSelect(t.Sel), t.Negate)
	default:
		return fmt.Sprintf("%T", e)
	}
}

// containsSubquery reports whether an expression contains a subquery
// node anywhere (the subquery's own internals are not walked, but the
// node itself is seen).
func containsSubquery(e Expr) bool {
	found := false
	walkExprs(e, func(x Expr) {
		switch x.(type) {
		case *SubqueryExpr, *InSubExpr:
			found = true
		}
	})
	return found
}

// itemName derives the output column name of a select item.
func itemName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if id, ok := item.Expr.(*Ident); ok {
		return id.Name
	}
	if ag, ok := item.Expr.(*AggCall); ok {
		return strings.ToLower(ag.Fn)
	}
	return "expr"
}

// LowerOnTable lowers an expression against a single table schema
// (UPDATE/DELETE predicates and SET expressions).
func (p *Planner) LowerOnTable(e Expr, schema *vtypes.Schema) (algebra.Scalar, error) {
	return p.lower(e, schemaScope(schema))
}

// LowerSet lowers an UPDATE SET expression against a table schema; a
// bare placeholder (`SET col = ?`) adopts the target column's kind.
func (p *Planner) LowerSet(e Expr, schema *vtypes.Schema, want vtypes.Kind) (algebra.Scalar, error) {
	lo, err := p.lower(e, schemaScope(schema))
	if err != nil {
		return nil, err
	}
	if prm, ok := lo.(*algebra.Param); ok {
		return p.materializeParam(&algebra.Param{Idx: prm.Idx, K: want})
	}
	return lo, nil
}

// LowerLiteral folds a literal-only expression to a value of the wanted
// kind (INSERT VALUES).
func (p *Planner) LowerLiteral(e Expr, want vtypes.Kind) (vtypes.Value, error) {
	if _, ok := e.(*NullLit); ok {
		return vtypes.NullValue(want), nil
	}
	return p.lowerLit(e, &scope{}, want)
}
