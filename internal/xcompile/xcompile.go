// Package xcompile is the cross-compiler of the paper (§I-B, ref [7]):
// it translates optimized relational algebra plans into executable X100
// operator trees, compiling scalar expressions down to vectorized
// primitive kernels. It is the only bridge between the planning stack
// and the vectorized engine.
package xcompile

import (
	"context"
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/expr"
	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

// Options configure compilation.
type Options struct {
	// VecSize overrides the engine vector size (0 = default).
	VecSize int
	// Fetch interposes a buffer manager on scans.
	Fetch storage.ChunkFetcher
	// ScanStats, when non-nil, receives scanned/pruned row-group
	// counts from every scan the compiled plan runs (partition scans
	// share it; the fields are atomic).
	ScanStats *storage.ScanStats
	// HashStats, when non-nil, receives hash-table shape and probe
	// stats from every HashAggregate and HashJoin in the compiled plan
	// (recorded at operator close; the sink is internally locked).
	HashStats *core.HashStatsSink
	// NoPrune disables min/max row-group pruning (filters still
	// evaluate inside the scan) — the differential-testing and
	// benchmarking switch for isolating data skipping.
	NoPrune bool
	// Ctx is the statement's cancellation context. It is installed on
	// every operator the compiler builds, so once the context is done,
	// Next returns the context error at the next vector boundary —
	// scans, joins, aggregates and exchange workers all stop mid-
	// statement instead of running to completion. Nil disables the
	// checks (hand-built experiment plans pay nothing).
	Ctx context.Context
	// Resolver, when non-nil, supplies each scan's stable image and PDT
	// layer stack instead of the live catalog. Epoch-snapshot cursors
	// pass their pinned snapshot here, so a compiled statement reads
	// exactly the commit point it pinned no matter what commits, folds
	// or stable-image swaps happen while it streams.
	Resolver Resolver
}

// Resolver resolves a table name to the stable image and PDT layer
// stack (bottom first) its scans should merge. *catalog.Catalog
// implements it with the live committed state.
type Resolver interface {
	Resolve(name string) (*storage.Table, []*pdt.PDT, error)
}

// Compile translates a plan into a vectorized operator tree.
func Compile(n algebra.Node, cat *catalog.Catalog, opts Options) (core.Operator, error) {
	c := &compiler{cat: cat, opts: opts}
	return c.node(n)
}

type compiler struct {
	cat  *catalog.Catalog
	opts Options
}

// node compiles one plan node and installs the statement context on the
// resulting operator (children were installed on their own recursive
// calls, so the whole tree ends up cancellation-aware).
func (c *compiler) node(n algebra.Node) (core.Operator, error) {
	op, err := c.nodeInner(n)
	if err != nil {
		return nil, err
	}
	if c.opts.Ctx != nil {
		core.SetTreeContext(op, c.opts.Ctx)
	}
	return op, nil
}

func (c *compiler) nodeInner(n algebra.Node) (core.Operator, error) {
	switch t := n.(type) {
	case *algebra.ScanNode:
		var res Resolver = c.cat
		if c.opts.Resolver != nil {
			res = c.opts.Resolver
		}
		tbl, layers, err := res.Resolve(t.Table)
		if err != nil {
			return nil, err
		}
		so := core.ScanOpts{
			VecSize: c.opts.VecSize,
			Fetch:   c.opts.Fetch,
			Stats:   c.opts.ScanStats,
			Layers:  layers,
			GroupLo: t.PartLo,
			GroupHi: t.PartHi,
		}
		if len(t.Filters) > 0 {
			// Pushed filters compile to an ordinary predicate the scan
			// evaluates right after decompression, and — unless
			// disabled — to a min/max prune function over the same
			// (bound) bounds, so groups the predicate cannot match are
			// never decompressed at all.
			p, err := c.pred(algebra.FiltersPred(t.Filters), t.Schema())
			if err != nil {
				return nil, err
			}
			so.Filter = p
			if !c.opts.NoPrune {
				so.Prune = synthesizePrune(t.Cols, t.Filters)
			}
		}
		cols := make([]int, len(t.Cols))
		for i, c := range t.Cols {
			if c == algebra.RowPosCol {
				c = core.RowPosCol
			}
			cols[i] = c
		}
		return core.NewScan(tbl, cols, so), nil

	case *algebra.SelectNode:
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		pred, err := c.pred(t.Pred, t.Input.Schema())
		if err != nil {
			return nil, err
		}
		return core.NewSelect(child, pred), nil

	case *algebra.ProjectNode:
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		exprs := make([]core.Expr, len(t.Exprs))
		for i, s := range t.Exprs {
			e, err := c.scalar(s, t.Input.Schema())
			if err != nil {
				return nil, err
			}
			exprs[i] = e
		}
		return core.NewProject(child, exprs, t.Names), nil

	case *algebra.AggNode:
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		groups := make([]core.Expr, len(t.GroupBy))
		for i, g := range t.GroupBy {
			e, err := c.scalar(g, t.Input.Schema())
			if err != nil {
				return nil, err
			}
			groups[i] = e
		}
		aggs := make([]core.AggSpec, len(t.Aggs))
		for i, a := range t.Aggs {
			spec := core.AggSpec{Fn: aggFn(a.Fn)}
			if a.Arg != nil {
				e, err := c.scalar(a.Arg, t.Input.Schema())
				if err != nil {
					return nil, err
				}
				spec.Arg = e
			}
			aggs[i] = spec
		}
		agg := core.NewHashAggregate(child, groups, aggs, t.Names)
		agg.SetStatsSink(c.opts.HashStats)
		return agg, nil

	case *algebra.JoinNode:
		left, err := c.node(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.node(t.Right)
		if err != nil {
			return nil, err
		}
		if len(t.LeftKeys) != len(t.RightKeys) {
			return nil, fmt.Errorf("xcompile: join key lists differ (%d vs %d)", len(t.LeftKeys), len(t.RightKeys))
		}
		lk := make([]core.Expr, len(t.LeftKeys))
		rk := make([]core.Expr, len(t.RightKeys))
		for i := range t.LeftKeys {
			if lk[i], err = c.scalar(t.LeftKeys[i], t.Left.Schema()); err != nil {
				return nil, err
			}
			if rk[i], err = c.scalar(t.RightKeys[i], t.Right.Schema()); err != nil {
				return nil, err
			}
		}
		hj, err := core.NewHashJoin(left, right, lk, rk, core.JoinType(t.Type))
		if err != nil {
			return nil, err
		}
		hj.SetStatsSink(c.opts.HashStats)
		return hj, nil

	case *algebra.SortNode:
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		keys := make([]core.SortKey, len(t.Keys))
		for i, k := range t.Keys {
			e, err := c.scalar(k.Expr, t.Input.Schema())
			if err != nil {
				return nil, err
			}
			keys[i] = core.SortKey{Expr: e, Desc: k.Desc}
		}
		return core.NewSort(child, keys), nil

	case *algebra.LimitNode:
		child, err := c.node(t.Input)
		if err != nil {
			return nil, err
		}
		return core.NewLimit(child, t.N), nil

	case *algebra.UnionAllNode:
		children := make([]core.Operator, len(t.Inputs))
		for i, in := range t.Inputs {
			op, err := c.node(in)
			if err != nil {
				return nil, err
			}
			children[i] = op
		}
		return core.NewXchgUnion(children)

	default:
		return nil, fmt.Errorf("xcompile: unsupported node %T", n)
	}
}

func aggFn(f algebra.AggFn) core.AggFn {
	switch f {
	case algebra.AggSum:
		return core.AggSum
	case algebra.AggCount:
		return core.AggCount
	case algebra.AggCountStar:
		return core.AggCountStar
	case algebra.AggMin:
		return core.AggMin
	case algebra.AggMax:
		return core.AggMax
	default:
		return core.AggAvg
	}
}

// scalar compiles a value-producing expression.
func (c *compiler) scalar(s algebra.Scalar, in *vtypes.Schema) (expr.Expr, error) {
	switch t := s.(type) {
	case *algebra.ColRef:
		return expr.NewCol(t.Idx, t.K), nil
	case *algebra.Lit:
		return expr.NewConst(t.Val), nil
	case *algebra.Param:
		// Plans holding Params are templates; algebra.BindParams must
		// substitute literals before the plan is executable.
		return nil, fmt.Errorf("xcompile: unbound parameter $%d (bind before execution)", t.Idx)
	case *algebra.Arith:
		l, err := c.scalar(t.L, in)
		if err != nil {
			return nil, err
		}
		r, err := c.scalar(t.R, in)
		if err != nil {
			return nil, err
		}
		return expr.NewArith(expr.ArithOp(t.Op), l, r)
	case *algebra.Cast:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewCast(e, t.To), nil
	case *algebra.YearOf:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewYearOf(e), nil
	case *algebra.Case:
		cond, err := c.scalar(t.Cond, in)
		if err != nil {
			return nil, err
		}
		then, err := c.scalar(t.Then, in)
		if err != nil {
			return nil, err
		}
		el, err := c.scalar(t.Else, in)
		if err != nil {
			return nil, err
		}
		return expr.NewCase(cond, then, el)
	case *algebra.Cmp:
		l, err := c.scalar(t.L, in)
		if err != nil {
			return nil, err
		}
		r, err := c.scalar(t.R, in)
		if err != nil {
			return nil, err
		}
		return expr.NewCmpMap(l, expr.CmpOp(t.Op), r)
	case *algebra.Like:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		m, err := expr.NewLikeMap(e, t.Pattern)
		if err != nil {
			return nil, err
		}
		if t.Negate {
			return expr.NewNotMap(m)
		}
		return m, nil
	case *algebra.And:
		subs, err := c.scalars(t.Preds, in)
		if err != nil {
			return nil, err
		}
		return expr.NewAndMap(subs...)
	case *algebra.Or:
		subs, err := c.scalars(t.Preds, in)
		if err != nil {
			return nil, err
		}
		return expr.NewOrMap(subs...)
	case *algebra.Not:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewNotMap(e)
	case *algebra.In:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewInMap(e, t.List)
	case *algebra.Between:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewBetweenMap(e, t.Lo, t.Hi)
	default:
		return nil, fmt.Errorf("xcompile: unsupported scalar %T as value", s)
	}
}

// scalars compiles a list of scalar expressions.
func (c *compiler) scalars(ss []algebra.Scalar, in *vtypes.Schema) ([]expr.Expr, error) {
	out := make([]expr.Expr, len(ss))
	for i, s := range ss {
		e, err := c.scalar(s, in)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// pred compiles a boolean scalar into a selection-vector predicate,
// picking fused Sel* kernels for the common shapes.
func (c *compiler) pred(s algebra.Scalar, in *vtypes.Schema) (expr.Pred, error) {
	switch t := s.(type) {
	case *algebra.And:
		ps := make([]expr.Pred, len(t.Preds))
		for i, sub := range t.Preds {
			p, err := c.pred(sub, in)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		return expr.NewAnd(ps...), nil
	case *algebra.Or:
		ps := make([]expr.Pred, len(t.Preds))
		for i, sub := range t.Preds {
			p, err := c.pred(sub, in)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		return expr.NewOr(ps...), nil
	case *algebra.Not:
		p, err := c.pred(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewNot(p), nil
	case *algebra.Between:
		if t.Lo.Null || t.Hi.Null {
			return neverPred{}, nil // NULL bound: never true
		}
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewBetween(e, t.Lo, t.Hi)
	case *algebra.Like:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		return expr.NewLike(e, t.Pattern, t.Negate)
	case *algebra.In:
		e, err := c.scalar(t.In, in)
		if err != nil {
			return nil, err
		}
		// NULL members match nothing in SQL; drop them so the raw-
		// compare kernel cannot match a row on a zero safe value.
		list := t.List
		for _, v := range list {
			if v.Null {
				list = nil
				for _, w := range t.List {
					if !w.Null {
						list = append(list, w)
					}
				}
				break
			}
		}
		if len(list) == 0 {
			return neverPred{}, nil
		}
		return expr.NewInSet(e, list)
	case *algebra.Cmp:
		// col OP literal → constant kernel; else column-column kernel.
		// A NULL literal compares as never-true (SQL three-valued
		// logic), matching the prune synthesis for the same conjunct.
		if lit, ok := t.R.(*algebra.Lit); ok {
			if lit.Val.Null {
				return neverPred{}, nil
			}
			e, err := c.scalar(t.L, in)
			if err != nil {
				return nil, err
			}
			return expr.NewCmpConst(e, expr.CmpOp(t.Op), lit.Val)
		}
		if lit, ok := t.L.(*algebra.Lit); ok {
			if lit.Val.Null {
				return neverPred{}, nil
			}
			e, err := c.scalar(t.R, in)
			if err != nil {
				return nil, err
			}
			return expr.NewCmpConst(e, expr.CmpOp(t.Op).Flip(), lit.Val)
		}
		l, err := c.scalar(t.L, in)
		if err != nil {
			return nil, err
		}
		r, err := c.scalar(t.R, in)
		if err != nil {
			return nil, err
		}
		return expr.NewCmpCols(l, expr.CmpOp(t.Op), r)
	case *algebra.IsNull:
		col, ok := t.In.(*algebra.ColRef)
		if !ok {
			return nil, fmt.Errorf("xcompile: IS NULL supported on columns only")
		}
		return &nullPred{idx: col.Idx, negate: t.Negate}, nil
	default:
		// Generic fallback: evaluate as boolean map, then select.
		e, err := c.scalar(s, in)
		if err != nil {
			return nil, err
		}
		return expr.NewBoolPred(e)
	}
}
