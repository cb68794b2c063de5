package algebra

import (
	"fmt"

	"vectorwise/internal/vtypes"
)

// BindParams returns a copy of a plan template with every Param scalar
// replaced by a literal from args (args[0] binds $1). The input plan is
// never mutated, so a cached template can be bound by any number of
// concurrent executions. Values are coerced to the parameter's resolved
// kind with the same rules the planner applies to literals (ints widen
// to float, floats truncate to int, strings parse as dates).
func BindParams(n Node, args []vtypes.Value) (Node, error) {
	return bindNode(n, args)
}

func bindNode(n Node, args []vtypes.Value) (Node, error) {
	switch t := n.(type) {
	case *ScanNode:
		// A scan without filters carries no scalars; it is immutable
		// during execution and safe to share between the template and
		// its bindings. Pushed filters may hold Param slots, so a
		// filtered scan clone-binds like any predicate.
		if len(t.Filters) == 0 {
			return t, nil
		}
		filters, err := bindScalars(t.Filters, args)
		if err != nil {
			return nil, err
		}
		clone := *t
		clone.Filters = filters
		return &clone, nil
	case *SelectNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		pred, err := bindScalar(t.Pred, args)
		if err != nil {
			return nil, err
		}
		return &SelectNode{Input: in, Pred: pred}, nil
	case *ProjectNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		exprs, err := bindScalars(t.Exprs, args)
		if err != nil {
			return nil, err
		}
		return &ProjectNode{Input: in, Exprs: exprs, Names: t.Names}, nil
	case *AggNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		groups, err := bindScalars(t.GroupBy, args)
		if err != nil {
			return nil, err
		}
		aggs := make([]AggExpr, len(t.Aggs))
		for i, a := range t.Aggs {
			aggs[i] = a
			if a.Arg != nil {
				arg, err := bindScalar(a.Arg, args)
				if err != nil {
					return nil, err
				}
				aggs[i].Arg = arg
			}
		}
		return &AggNode{Input: in, GroupBy: groups, Aggs: aggs, Names: t.Names}, nil
	case *JoinNode:
		left, err := bindNode(t.Left, args)
		if err != nil {
			return nil, err
		}
		right, err := bindNode(t.Right, args)
		if err != nil {
			return nil, err
		}
		lk, err := bindScalars(t.LeftKeys, args)
		if err != nil {
			return nil, err
		}
		rk, err := bindScalars(t.RightKeys, args)
		if err != nil {
			return nil, err
		}
		return &JoinNode{Left: left, Right: right, LeftKeys: lk, RightKeys: rk, Type: t.Type}, nil
	case *SortNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		keys := make([]SortKey, len(t.Keys))
		for i, k := range t.Keys {
			e, err := bindScalar(k.Expr, args)
			if err != nil {
				return nil, err
			}
			keys[i] = SortKey{Expr: e, Desc: k.Desc}
		}
		return &SortNode{Input: in, Keys: keys}, nil
	case *LimitNode:
		in, err := bindNode(t.Input, args)
		if err != nil {
			return nil, err
		}
		return &LimitNode{Input: in, N: t.N}, nil
	case *UnionAllNode:
		inputs := make([]Node, len(t.Inputs))
		for i, c := range t.Inputs {
			in, err := bindNode(c, args)
			if err != nil {
				return nil, err
			}
			inputs[i] = in
		}
		return &UnionAllNode{Inputs: inputs}, nil
	default:
		return nil, fmt.Errorf("algebra: cannot bind parameters in %T", n)
	}
}

func bindScalars(ss []Scalar, args []vtypes.Value) ([]Scalar, error) {
	out := make([]Scalar, len(ss))
	for i, s := range ss {
		e, err := bindScalar(s, args)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func bindScalar(s Scalar, args []vtypes.Value) (Scalar, error) {
	return RewriteScalar(s, func(leaf Scalar) (Scalar, error) {
		p, ok := leaf.(*Param)
		if !ok {
			return leaf, nil
		}
		if p.Idx < 1 || p.Idx > len(args) {
			return nil, fmt.Errorf("algebra: parameter $%d not bound (%d args)", p.Idx, len(args))
		}
		v, err := CoerceValue(args[p.Idx-1], p.K)
		if err != nil {
			return nil, fmt.Errorf("algebra: parameter $%d: %w", p.Idx, err)
		}
		return &Lit{Val: v}, nil
	})
}

// RewriteScalar rebuilds s bottom-up, passing every leaf (ColRef, Lit,
// Param) through leaf. Interior nodes are always fresh copies, so the
// input is never mutated and may be shared by a cached plan template.
func RewriteScalar(s Scalar, leaf func(Scalar) (Scalar, error)) (Scalar, error) {
	rec := func(x Scalar) (Scalar, error) { return RewriteScalar(x, leaf) }
	recAll := func(xs []Scalar) ([]Scalar, error) {
		out := make([]Scalar, len(xs))
		for i, x := range xs {
			e, err := rec(x)
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	}
	switch t := s.(type) {
	case *ColRef, *Lit, *Param:
		return leaf(s)
	case *Arith:
		lr, err := recAll([]Scalar{t.L, t.R})
		if err != nil {
			return nil, err
		}
		return &Arith{Op: t.Op, L: lr[0], R: lr[1], K: t.K}, nil
	case *Cmp:
		lr, err := recAll([]Scalar{t.L, t.R})
		if err != nil {
			return nil, err
		}
		return &Cmp{Op: t.Op, L: lr[0], R: lr[1]}, nil
	case *Between:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return &Between{In: in, Lo: t.Lo, Hi: t.Hi}, nil
	case *Like:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return &Like{In: in, Pattern: t.Pattern, Negate: t.Negate}, nil
	case *In:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return &In{In: in, List: t.List}, nil
	case *And:
		preds, err := recAll(t.Preds)
		if err != nil {
			return nil, err
		}
		return &And{Preds: preds}, nil
	case *Or:
		preds, err := recAll(t.Preds)
		if err != nil {
			return nil, err
		}
		return &Or{Preds: preds}, nil
	case *Not:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return &Not{In: in}, nil
	case *Case:
		arms, err := recAll([]Scalar{t.Cond, t.Then, t.Else})
		if err != nil {
			return nil, err
		}
		return &Case{Cond: arms[0], Then: arms[1], Else: arms[2], K: t.K}, nil
	case *YearOf:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return &YearOf{In: in}, nil
	case *IsNull:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return &IsNull{In: in, Negate: t.Negate}, nil
	case *Cast:
		in, err := rec(t.In)
		if err != nil {
			return nil, err
		}
		return &Cast{In: in, To: t.To}, nil
	default:
		return nil, fmt.Errorf("algebra: cannot rewrite scalar %T", s)
	}
}

// CoerceValue converts a bound argument to the kind a parameter slot
// resolved to: same storage class re-tags, ints widen to float, floats
// truncate to int, strings parse as dates. NULL adopts the slot kind.
func CoerceValue(v vtypes.Value, want vtypes.Kind) (vtypes.Value, error) {
	if want == vtypes.KindInvalid {
		return v, nil
	}
	if v.Null {
		return vtypes.NullValue(want), nil
	}
	if v.Kind.StorageClass() == want.StorageClass() {
		v.Kind = want
		return v, nil
	}
	switch {
	case want.StorageClass() == vtypes.ClassF64 && v.Kind.StorageClass() == vtypes.ClassI64:
		return vtypes.F64Value(float64(v.I64)), nil
	case want.StorageClass() == vtypes.ClassI64 && v.Kind.StorageClass() == vtypes.ClassF64:
		return vtypes.Value{Kind: want, I64: int64(v.F64)}, nil
	case want == vtypes.KindDate && v.Kind == vtypes.KindStr:
		d, err := vtypes.ParseDate(v.Str)
		if err != nil {
			return vtypes.Value{}, err
		}
		return vtypes.DateValue(d), nil
	default:
		return vtypes.Value{}, fmt.Errorf("value %v incompatible with %v", v, want)
	}
}
