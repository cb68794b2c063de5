package rewriter

import (
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/vtypes"
)

func wideScan(table string, n int) *algebra.ScanNode {
	s := &algebra.ScanNode{Table: table, Out: &vtypes.Schema{}}
	for i := 0; i < n; i++ {
		s.Cols = append(s.Cols, i)
		s.Out.Cols = append(s.Out.Cols, vtypes.Column{Name: table + string(rune('a'+i)), Kind: vtypes.KindI64})
	}
	return s
}

// TestPruneColumnsRemapsEveryReference checks the rewritten plan line
// by line: scans narrow to what filters, predicates, keys, sort keys
// and outputs read; every ColRef follows; Params stay slots; the semi
// join's build side keeps only its key; the root schema is unchanged.
func TestPruneColumnsRemapsEveryReference(t *testing.T) {
	left := wideScan("l", 6)
	left.Filters = []algebra.Scalar{&algebra.Cmp{Op: algebra.CmpEq, L: colI(4), R: &algebra.Param{Idx: 1, K: vtypes.KindI64}}}
	right := wideScan("r", 4)
	plan := &algebra.ProjectNode{
		Input: &algebra.SortNode{
			Input: &algebra.JoinNode{
				Left: &algebra.SelectNode{Input: left,
					Pred: &algebra.Cmp{Op: algebra.CmpGt, L: colI(5), R: colI(2)}},
				Right: right, LeftKeys: []algebra.Scalar{colI(2)}, RightKeys: []algebra.Scalar{colI(3)},
				Type: algebra.JoinLeftSemi,
			},
			Keys: []algebra.SortKey{{Expr: colI(1), Desc: true}},
		},
		Exprs: []algebra.Scalar{colI(5), colI(5)},
		Names: []string{"x", "y"},
	}
	before := plan.Schema().String()
	out, err := PruneColumns(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Schema().String(); got != before {
		t.Fatalf("root schema changed: %s -> %s", before, got)
	}
	want := strings.Join([]string{
		"Project [x y]",
		"  Sort keys=1",
		"    HashJoin semi",
		"      Select (#3 > #1)",
		"        Scan l cols=[1 2 4 5] filters=[(#2 = $1)]",
		"      Scan r cols=[3]",
		"",
	}, "\n")
	if got := algebra.Explain(out); got != want {
		t.Fatalf("pruned plan:\n%s\nwant:\n%s", got, want)
	}
	p := out.(*algebra.ProjectNode)
	s := p.Input.(*algebra.SortNode)
	j := s.Input.(*algebra.JoinNode)
	if p.Exprs[0].String() != "#3" || p.Exprs[1].String() != "#3" || s.Keys[0].Expr.String() != "#0" ||
		j.LeftKeys[0].String() != "#1" || j.RightKeys[0].String() != "#0" {
		t.Fatalf("references not remapped: project %v, sort %v, keys %v = %v", p.Exprs, s.Keys[0].Expr, j.LeftKeys, j.RightKeys)
	}
	if left.Filters[0].String() != "(#4 = $1)" || len(left.Cols) != 6 {
		t.Fatalf("input plan mutated: %v %v", left.Cols, left.Filters)
	}
}

// TestPruneColumnsKeepsOneColumnAndSetOpBranches: a scan read by
// nothing keeps one fixed-width column, unused projection outputs go,
// and union branches keep every column.
func TestPruneColumnsKeepsOneColumnAndSetOpBranches(t *testing.T) {
	scan := wideScan("t", 3)
	scan.Out.Cols[0].Kind = vtypes.KindStr
	count := &algebra.AggNode{Input: &algebra.ProjectNode{Input: scan,
		Exprs: []algebra.Scalar{colI(1), colI(2)}, Names: []string{"a", "b"}},
		Aggs: []algebra.AggExpr{{Fn: algebra.AggCountStar}}, Names: []string{"n"}}
	want := "Aggregate groups=0 aggs=1\n  Project [a]\n    Scan t cols=[1]\n"
	if got := explainPruned(t, count); got != want {
		t.Fatalf("COUNT(*) plan:\n%s\nwant:\n%s", got, want)
	}
	union := &algebra.ProjectNode{
		Input: &algebra.UnionAllNode{Inputs: []algebra.Node{wideScan("u", 3), wideScan("v", 3)}},
		Exprs: []algebra.Scalar{colI(0)}, Names: []string{"x"}}
	if got := explainPruned(t, union); strings.Count(got, "cols=[0 1 2]") != 2 {
		t.Fatalf("union branches were narrowed:\n%s", got)
	}
}

func explainPruned(t *testing.T, n algebra.Node) string {
	t.Helper()
	out, err := PruneColumns(n)
	if err != nil {
		t.Fatal(err)
	}
	return algebra.Explain(out)
}

type alienScalar struct{}

func (alienScalar) Kind() vtypes.Kind { return vtypes.KindI64 }
func (alienScalar) String() string    { return "alien" }

// TestPruneColumnsRejectsUnknownScalars: a scalar the pass cannot
// renumber is an error, never a plan with stale column positions.
func TestPruneColumnsRejectsUnknownScalars(t *testing.T) {
	plan := &algebra.ProjectNode{Input: wideScan("t", 2), Exprs: []algebra.Scalar{alienScalar{}}, Names: []string{"a"}}
	if out, err := PruneColumns(plan); err == nil {
		t.Fatalf("want an error, got plan\n%s", algebra.Explain(out))
	}
}
