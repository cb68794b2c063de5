// Package rewriter is the rule-based plan rewriting layer of §I-B. In
// the product it is implemented with the Tom pattern-matching tool; here
// the rules are hand-written Go pattern matches over the algebra (see
// DESIGN.md substitution table). Two rule families are implemented:
//
//   - Simplification: flatten boolean nests, eliminate double negation,
//     fold literal-only comparisons — the normalizations that make the
//     cross-compiler's fast-path patterns fire.
//   - Parallelization: the Volcano-style multi-core rewrite. A pipeline
//     of Scan[→Select][→Project][→Aggregate] is cloned per partition of
//     the table's row groups, partial results flow through an exchange
//     union, and a final aggregate (or nothing, for pipe-only plans)
//     recombines them. AVG first decomposes into SUM/COUNT so partials
//     recombine exactly.
package rewriter

import (
	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/vtypes"
)

// Simplify normalizes boolean structure bottom-up.
func Simplify(s algebra.Scalar) algebra.Scalar {
	switch t := s.(type) {
	case *algebra.And:
		var flat []algebra.Scalar
		for _, p := range t.Preds {
			p = Simplify(p)
			if inner, ok := p.(*algebra.And); ok {
				flat = append(flat, inner.Preds...)
				continue
			}
			if lit, ok := p.(*algebra.Lit); ok && lit.Val.Kind == vtypes.KindBool && lit.Val.B {
				continue // AND true
			}
			flat = append(flat, p)
		}
		if len(flat) == 1 {
			return flat[0]
		}
		if len(flat) == 0 {
			return &algebra.Lit{Val: vtypes.BoolValue(true)}
		}
		return &algebra.And{Preds: flat}
	case *algebra.Or:
		var flat []algebra.Scalar
		for _, p := range t.Preds {
			p = Simplify(p)
			if inner, ok := p.(*algebra.Or); ok {
				flat = append(flat, inner.Preds...)
				continue
			}
			if lit, ok := p.(*algebra.Lit); ok && lit.Val.Kind == vtypes.KindBool && !lit.Val.B {
				continue // OR false
			}
			flat = append(flat, p)
		}
		if len(flat) == 1 {
			return flat[0]
		}
		if len(flat) == 0 {
			return &algebra.Lit{Val: vtypes.BoolValue(false)}
		}
		return &algebra.Or{Preds: flat}
	case *algebra.Not:
		in := Simplify(t.In)
		if inner, ok := in.(*algebra.Not); ok {
			return inner.In
		}
		if cmp, ok := in.(*algebra.Cmp); ok {
			return &algebra.Cmp{Op: negateCmp(cmp.Op), L: cmp.L, R: cmp.R}
		}
		if like, ok := in.(*algebra.Like); ok {
			return &algebra.Like{In: like.In, Pattern: like.Pattern, Negate: !like.Negate}
		}
		return &algebra.Not{In: in}
	case *algebra.Cmp:
		if l, ok := t.L.(*algebra.Lit); ok {
			if r, ok2 := t.R.(*algebra.Lit); ok2 {
				cmp := l.Val.Compare(r.Val)
				var b bool
				switch t.Op {
				case algebra.CmpEq:
					b = cmp == 0
				case algebra.CmpNe:
					b = cmp != 0
				case algebra.CmpLt:
					b = cmp < 0
				case algebra.CmpLe:
					b = cmp <= 0
				case algebra.CmpGt:
					b = cmp > 0
				default:
					b = cmp >= 0
				}
				return &algebra.Lit{Val: vtypes.BoolValue(b)}
			}
		}
		return t
	default:
		return s
	}
}

func negateCmp(op algebra.CmpOp) algebra.CmpOp {
	switch op {
	case algebra.CmpEq:
		return algebra.CmpNe
	case algebra.CmpNe:
		return algebra.CmpEq
	case algebra.CmpLt:
		return algebra.CmpGe
	case algebra.CmpLe:
		return algebra.CmpGt
	case algebra.CmpGt:
		return algebra.CmpLe
	default:
		return algebra.CmpLt
	}
}

// SimplifyPlan applies Simplify to every predicate in a plan.
func SimplifyPlan(n algebra.Node) algebra.Node {
	switch t := n.(type) {
	case *algebra.SelectNode:
		return &algebra.SelectNode{Input: SimplifyPlan(t.Input), Pred: Simplify(t.Pred)}
	case *algebra.ProjectNode:
		return &algebra.ProjectNode{Input: SimplifyPlan(t.Input), Exprs: t.Exprs, Names: t.Names}
	case *algebra.AggNode:
		return &algebra.AggNode{Input: SimplifyPlan(t.Input), GroupBy: t.GroupBy, Aggs: t.Aggs, Names: t.Names}
	case *algebra.JoinNode:
		return &algebra.JoinNode{Left: SimplifyPlan(t.Left), Right: SimplifyPlan(t.Right),
			LeftKeys: t.LeftKeys, RightKeys: t.RightKeys, Type: t.Type}
	case *algebra.SortNode:
		return &algebra.SortNode{Input: SimplifyPlan(t.Input), Keys: t.Keys}
	case *algebra.LimitNode:
		return &algebra.LimitNode{Input: SimplifyPlan(t.Input), N: t.N}
	default:
		return n
	}
}

// DecomposeAvg rewrites every AVG in an AggNode into SUM and COUNT with
// a Project on top computing the quotient. This both lets partial
// aggregates recombine exactly under parallelization and mirrors how the
// product's rewriter decomposes non-distributive aggregates.
func DecomposeAvg(a *algebra.AggNode) algebra.Node {
	hasAvg := false
	for _, ag := range a.Aggs {
		if ag.Fn == algebra.AggAvg {
			hasAvg = true
		}
	}
	if !hasAvg {
		return a
	}
	var newAggs []algebra.AggExpr
	var newNames []string
	// Map original agg index → (sumIdx, cntIdx) or plain idx.
	type slot struct{ sum, cnt, plain int }
	slots := make([]slot, len(a.Aggs))
	ng := len(a.GroupBy)
	for i, ag := range a.Aggs {
		if ag.Fn == algebra.AggAvg {
			slots[i] = slot{sum: ng + len(newAggs), cnt: ng + len(newAggs) + 1, plain: -1}
			newAggs = append(newAggs,
				algebra.AggExpr{Fn: algebra.AggSum, Arg: &algebra.Cast{In: ag.Arg, To: vtypes.KindF64}},
				algebra.AggExpr{Fn: algebra.AggCount, Arg: ag.Arg})
			newNames = append(newNames, a.Names[ng+i]+"_sum", a.Names[ng+i]+"_cnt")
			continue
		}
		slots[i] = slot{plain: ng + len(newAggs)}
		newAggs = append(newAggs, ag)
		newNames = append(newNames, a.Names[ng+i])
	}
	inner := &algebra.AggNode{
		Input:   a.Input,
		GroupBy: a.GroupBy,
		Aggs:    newAggs,
		Names:   append(append([]string{}, a.Names[:ng]...), newNames...),
	}
	innerSchema := inner.Schema()
	var exprs []algebra.Scalar
	var names []string
	for g := 0; g < ng; g++ {
		exprs = append(exprs, &algebra.ColRef{Idx: g, K: innerSchema.Col(g).Kind})
		names = append(names, a.Names[g])
	}
	for i := range a.Aggs {
		if slots[i].plain >= 0 {
			exprs = append(exprs, &algebra.ColRef{Idx: slots[i].plain, K: innerSchema.Col(slots[i].plain).Kind})
		} else {
			div, err := algebra.NewArith(algebra.OpDiv,
				&algebra.ColRef{Idx: slots[i].sum, K: vtypes.KindF64},
				&algebra.Cast{In: &algebra.ColRef{Idx: slots[i].cnt, K: vtypes.KindI64}, To: vtypes.KindF64})
			if err != nil {
				return a // should not happen; keep original on failure
			}
			exprs = append(exprs, div)
		}
		names = append(names, a.Names[ng+i])
	}
	return &algebra.ProjectNode{Input: inner, Exprs: exprs, Names: names}
}

// Parallelize rewrites a plan for multi-core execution with `workers`
// partitions. Only the canonical X100 pipeline shapes are parallelized
// (aggregation over a scan pipeline, or a pure scan pipeline); anything
// else returns unchanged — mirroring how the product's parallel rewriter
// grew rule by rule.
func Parallelize(n algebra.Node, cat *catalog.Catalog, workers int) algebra.Node {
	if workers <= 1 {
		return n
	}
	switch t := n.(type) {
	case *algebra.SortNode:
		return &algebra.SortNode{Input: Parallelize(t.Input, cat, workers), Keys: t.Keys}
	case *algebra.LimitNode:
		return &algebra.LimitNode{Input: Parallelize(t.Input, cat, workers), N: t.N}
	case *algebra.ProjectNode:
		// A projection above an aggregation (e.g. AVG decomposition)
		// parallelizes beneath it.
		if agg, ok := t.Input.(*algebra.AggNode); ok {
			inner := Parallelize(agg, cat, workers)
			if inner != agg {
				return &algebra.ProjectNode{Input: inner, Exprs: t.Exprs, Names: t.Names}
			}
		}
		return parallelizePipe(t, cat, workers)
	case *algebra.AggNode:
		if d := DecomposeAvg(t); d != t {
			return Parallelize(d, cat, workers)
		}
		return parallelizeAgg(t, cat, workers)
	case *algebra.SelectNode, *algebra.ScanNode:
		return parallelizePipe(n, cat, workers)
	default:
		return n
	}
}

// pipelineScan walks a Scan[→Select][→Project] chain, returning the
// scan and a rebuild function that re-roots the chain on a new scan.
func pipelineScan(n algebra.Node) (*algebra.ScanNode, func(algebra.Node) algebra.Node) {
	switch t := n.(type) {
	case *algebra.ScanNode:
		return t, func(s algebra.Node) algebra.Node { return s }
	case *algebra.SelectNode:
		scan, rebuild := pipelineScan(t.Input)
		if scan == nil {
			return nil, nil
		}
		return scan, func(s algebra.Node) algebra.Node {
			return &algebra.SelectNode{Input: rebuild(s), Pred: t.Pred}
		}
	case *algebra.ProjectNode:
		scan, rebuild := pipelineScan(t.Input)
		if scan == nil {
			return nil, nil
		}
		return scan, func(s algebra.Node) algebra.Node {
			return &algebra.ProjectNode{Input: rebuild(s), Exprs: t.Exprs, Names: t.Names}
		}
	default:
		return nil, nil
	}
}

// partitionScan clones a scan per row-group range.
func partitionScan(scan *algebra.ScanNode, cat *catalog.Catalog, workers int) []*algebra.ScanNode {
	tbl, _, err := cat.Resolve(scan.Table)
	if err != nil || tbl.Groups() < 2 || scan.PartHi > 0 {
		return nil
	}
	parts := core.PartitionGroups(tbl.Groups(), workers)
	if len(parts) < 2 {
		return nil
	}
	var out []*algebra.ScanNode
	for _, p := range parts {
		clone := *scan
		clone.PartLo, clone.PartHi = p[0], p[1]
		out = append(out, &clone)
	}
	return out
}

// parallelizePipe splits Scan[→Select][→Project] into a partitioned
// union.
func parallelizePipe(n algebra.Node, cat *catalog.Catalog, workers int) algebra.Node {
	scan, rebuild := pipelineScan(n)
	if scan == nil {
		return n
	}
	scans := partitionScan(scan, cat, workers)
	if scans == nil {
		return n
	}
	var inputs []algebra.Node
	for _, s := range scans {
		inputs = append(inputs, rebuild(s))
	}
	return &algebra.UnionAllNode{Inputs: inputs}
}

// parallelizeAgg produces partial aggregates per partition plus a final
// recombining aggregate (SUM→SUM, COUNT→SUM, MIN→MIN, MAX→MAX). An
// ungrouped partial over an empty partition still emits its row (COUNT
// 0, the others NULL); the final aggregate skips the NULLs.
func parallelizeAgg(a *algebra.AggNode, cat *catalog.Catalog, workers int) algebra.Node {
	for _, ag := range a.Aggs {
		switch ag.Fn {
		case algebra.AggSum, algebra.AggCount, algebra.AggCountStar, algebra.AggMin, algebra.AggMax:
		default:
			return a // non-distributive aggregate left serial
		}
	}
	scan, rebuild := pipelineScan(a.Input)
	if scan == nil {
		return a
	}
	scans := partitionScan(scan, cat, workers)
	if scans == nil {
		return a
	}
	var inputs []algebra.Node
	for _, s := range scans {
		inputs = append(inputs, &algebra.AggNode{
			Input:   rebuild(s),
			GroupBy: a.GroupBy,
			Aggs:    a.Aggs,
			Names:   a.Names,
		})
	}
	union := &algebra.UnionAllNode{Inputs: inputs}
	// Final aggregate regroups on the partial group columns.
	partialSchema := inputs[0].Schema()
	ng := len(a.GroupBy)
	var finalGroups []algebra.Scalar
	for g := 0; g < ng; g++ {
		finalGroups = append(finalGroups, &algebra.ColRef{Idx: g, K: partialSchema.Col(g).Kind})
	}
	var finalAggs []algebra.AggExpr
	for i, ag := range a.Aggs {
		argRef := &algebra.ColRef{Idx: ng + i, K: partialSchema.Col(ng + i).Kind}
		switch ag.Fn {
		case algebra.AggSum:
			finalAggs = append(finalAggs, algebra.AggExpr{Fn: algebra.AggSum, Arg: argRef})
		case algebra.AggCount, algebra.AggCountStar:
			finalAggs = append(finalAggs, algebra.AggExpr{Fn: algebra.AggSum, Arg: argRef})
		case algebra.AggMin:
			finalAggs = append(finalAggs, algebra.AggExpr{Fn: algebra.AggMin, Arg: argRef})
		case algebra.AggMax:
			finalAggs = append(finalAggs, algebra.AggExpr{Fn: algebra.AggMax, Arg: argRef})
		}
	}
	return &algebra.AggNode{Input: union, GroupBy: finalGroups, Aggs: finalAggs, Names: a.Names}
}
