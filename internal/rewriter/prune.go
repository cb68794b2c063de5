package rewriter

import (
	"fmt"

	"vectorwise/internal/algebra"
	"vectorwise/internal/vtypes"
)

// PruneColumns is the required-columns pass: one top-down walk that
// narrows every scan to the columns its ancestors and its own pushed
// filters reference, so scans decompress, and joins copy, nothing a
// query never reads. Along the way it drops projection outputs nobody
// uses, keeps semi/anti build sides to their keys, and renumbers every
// column reference to the narrowed positions.
//
// The root's schema is unchanged. Set-operation inputs and aggregate
// outputs keep all their columns (set operations match positionally),
// and a scan no one reads a column of (COUNT(*)) keeps one fixed-width
// column so it still yields row counts. Param slots pass through
// untouched, so a pruned template binds like an unpruned one. Nodes are
// rebuilt, never mutated. The only error is a scalar RewriteScalar does
// not know.
func PruneColumns(n algebra.Node) (out algebra.Node, err error) {
	defer func() {
		if r := recover(); r != nil {
			u, ok := r.(unprunable)
			if !ok {
				panic(r)
			}
			out, err = nil, fmt.Errorf("rewriter: column pruning: %w", u.err)
		}
	}()
	out, _ = prune(n, allNeeded(n.Schema().Len()))
	return out, nil
}

// unprunable carries a RewriteScalar error out of the recursive walk to
// PruneColumns, which returns it.
type unprunable struct{ err error }

// prune rewrites n to produce at least the columns need marks. It
// returns the new node and the map from n's output positions to the new
// node's (-1 for a dropped column).
func prune(n algebra.Node, need []bool) (algebra.Node, []int) {
	switch t := n.(type) {
	case *algebra.ScanNode:
		return pruneScan(t, need)
	case *algebra.SelectNode:
		need = markRefs(need, t.Pred)
		in, m := prune(t.Input, need)
		return &algebra.SelectNode{Input: in, Pred: remapRefs(t.Pred, m)}, m
	case *algebra.ProjectNode:
		var keep []int
		for i := range t.Exprs {
			if need[i] {
				keep = append(keep, i)
			}
		}
		if len(keep) == 0 {
			keep = []int{0}
		}
		childNeed := make([]bool, t.Input.Schema().Len())
		for _, i := range keep {
			childNeed = markRefs(childNeed, t.Exprs[i])
		}
		in, cm := prune(t.Input, childNeed)
		out := &algebra.ProjectNode{Input: in}
		m := dropped(len(t.Exprs))
		for j, i := range keep {
			out.Exprs = append(out.Exprs, remapRefs(t.Exprs[i], cm))
			out.Names = append(out.Names, t.Names[i])
			m[i] = j
		}
		return out, m
	case *algebra.AggNode:
		childNeed := markRefs(make([]bool, t.Input.Schema().Len()), t.GroupBy...)
		for _, a := range t.Aggs {
			if a.Arg != nil {
				childNeed = markRefs(childNeed, a.Arg)
			}
		}
		in, cm := prune(t.Input, childNeed)
		aggs := make([]algebra.AggExpr, len(t.Aggs))
		for i, a := range t.Aggs {
			aggs[i] = a
			if a.Arg != nil {
				aggs[i].Arg = remapRefs(a.Arg, cm)
			}
		}
		return &algebra.AggNode{Input: in, GroupBy: remapAll(t.GroupBy, cm), Aggs: aggs, Names: t.Names},
			identity(len(need))
	case *algebra.JoinNode:
		lw := t.Left.Schema().Len()
		lneed := markRefs(append([]bool(nil), need[:lw]...), t.LeftKeys...)
		rneed := make([]bool, t.Right.Schema().Len())
		emitsRight := t.Type == algebra.JoinInner || t.Type == algebra.JoinLeftOuter
		if emitsRight {
			copy(rneed, need[lw:])
		}
		rneed = markRefs(rneed, t.RightKeys...)
		l, lm := prune(t.Left, lneed)
		r, rm := prune(t.Right, rneed)
		m := lm
		if emitsRight {
			nl := l.Schema().Len()
			for _, p := range rm {
				if p >= 0 {
					p += nl
				}
				m = append(m, p)
			}
		}
		return &algebra.JoinNode{Left: l, Right: r, LeftKeys: remapAll(t.LeftKeys, lm),
			RightKeys: remapAll(t.RightKeys, rm), Type: t.Type}, m
	case *algebra.SortNode:
		for _, k := range t.Keys {
			need = markRefs(need, k.Expr)
		}
		in, m := prune(t.Input, need)
		keys := make([]algebra.SortKey, len(t.Keys))
		for i, k := range t.Keys {
			keys[i] = algebra.SortKey{Expr: remapRefs(k.Expr, m), Desc: k.Desc}
		}
		return &algebra.SortNode{Input: in, Keys: keys}, m
	case *algebra.LimitNode:
		in, m := prune(t.Input, need)
		return &algebra.LimitNode{Input: in, N: t.N}, m
	case *algebra.UnionAllNode:
		// Branches line up positionally: each keeps every column, which
		// makes its own map the identity.
		inputs := make([]algebra.Node, len(t.Inputs))
		for i, c := range t.Inputs {
			inputs[i], _ = prune(c, allNeeded(c.Schema().Len()))
		}
		return &algebra.UnionAllNode{Inputs: inputs}, identity(len(need))
	default:
		return n, identity(len(need))
	}
}

// pruneScan narrows a scan to the needed columns plus those its pushed
// filters read.
func pruneScan(s *algebra.ScanNode, need []bool) (algebra.Node, []int) {
	need = markRefs(need, s.Filters...)
	var pos []int
	for i, b := range need {
		if b {
			pos = append(pos, i)
		}
	}
	if len(pos) == len(s.Cols) {
		return s, identity(len(need))
	}
	if len(pos) == 0 {
		pos = []int{fixedWidthCol(s.Out)}
	}
	m := dropped(len(s.Cols))
	cols := make([]int, len(pos))
	for j, i := range pos {
		m[i] = j
		cols[j] = s.Cols[i]
	}
	clone := *s
	clone.Cols = cols
	clone.Out = s.Out.Project(pos)
	clone.Filters = remapAll(s.Filters, m)
	return &clone, m
}

// fixedWidthCol picks the column a scan keeps when no column is read:
// the first non-string one (cheapest to decode), else the first.
func fixedWidthCol(s *vtypes.Schema) int {
	for i, c := range s.Cols {
		if c.Kind.StorageClass() != vtypes.ClassStr {
			return i
		}
	}
	return 0
}

// markRefs returns need with every column the scalars reference set.
// need is copied first, so a caller's slice is never written.
func markRefs(need []bool, ss ...algebra.Scalar) []bool {
	out := append([]bool(nil), need...)
	for _, s := range ss {
		// Only the leaf callback matters; the rebuilt copy is discarded.
		if _, err := algebra.RewriteScalar(s, func(leaf algebra.Scalar) (algebra.Scalar, error) {
			if c, ok := leaf.(*algebra.ColRef); ok {
				out[c.Idx] = true
			}
			return leaf, nil
		}); err != nil {
			panic(unprunable{err})
		}
	}
	return out
}

// remapRefs renumbers every column reference of s through m.
func remapRefs(s algebra.Scalar, m []int) algebra.Scalar {
	out, err := algebra.RewriteScalar(s, func(leaf algebra.Scalar) (algebra.Scalar, error) {
		if c, ok := leaf.(*algebra.ColRef); ok {
			return &algebra.ColRef{Idx: m[c.Idx], K: c.K}, nil
		}
		return leaf, nil
	})
	if err != nil {
		panic(unprunable{err})
	}
	return out
}

func remapAll(ss []algebra.Scalar, m []int) []algebra.Scalar {
	if ss == nil {
		return nil
	}
	out := make([]algebra.Scalar, len(ss))
	for i, s := range ss {
		out[i] = remapRefs(s, m)
	}
	return out
}

func allNeeded(n int) []bool {
	need := make([]bool, n)
	for i := range need {
		need[i] = true
	}
	return need
}

func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func dropped(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = -1
	}
	return m
}
