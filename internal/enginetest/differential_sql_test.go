// SQL-vs-algebra differential suite: every TPC-H query of the suite is
// planned from its SQL text (lexer → parser → planner → rewriter) and
// must produce results row-identical to the hand-built algebra plan of
// the same query on the same catalog — serially and under the parallel
// rewrite. This pins the whole SQL front end to the semantics the
// paper's benchmark queries were written against.
package enginetest

import (
	"sync"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/testutil"
	"vectorwise/internal/tpch"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// diffSF keeps the fixture fast while leaving every query with matching
// rows (Q10's LIMIT 20 still overflows its group count, etc.).
const diffSF = 0.01

var (
	tpchOnce sync.Once
	tpchC    *catalog.Catalog
	tpchErr  error
)

func tpchFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	tpchOnce.Do(func() {
		tpchC, tpchErr = tpch.Generate(diffSF, 0)
	})
	if tpchErr != nil {
		t.Fatalf("generate: %v", tpchErr)
	}
	return tpchC
}

// planSQL lowers one suite query's SQL text through the real front end,
// with the DB's rewrite order: simplify, prune columns, parallelize.
func planSQL(t *testing.T, cat *catalog.Catalog, text string, parallel int) algebra.Node {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p := &sql.Planner{Cat: cat}
	plan, err := p.PlanQuery(stmt.AST)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if plan, err = rewriter.PruneColumns(rewriter.SimplifyPlan(plan)); err != nil {
		t.Fatalf("prune: %v", err)
	}
	if parallel > 1 {
		plan = rewriter.Parallelize(plan, cat, parallel)
	}
	return plan
}

func collectVectorized(t *testing.T, cat *catalog.Catalog, plan algebra.Node) []vtypes.Row {
	t.Helper()
	op, err := xcompile.Compile(plan, cat, xcompile.Options{})
	if err != nil {
		t.Fatalf("xcompile: %v", err)
	}
	rows, err := core.Collect(op)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return rows
}

func TestDifferentialSQLvsAlgebra(t *testing.T) {
	cat := tpchFixture(t)
	byName := map[string]func() algebra.Node{}
	for _, q := range tpch.Suite() {
		byName[q.Name] = q.Build
	}
	for _, sq := range tpch.SQLSuite() {
		sq := sq
		t.Run(sq.Name, func(t *testing.T) {
			build, ok := byName[sq.Name]
			if !ok {
				t.Fatalf("no hand-built plan for %s", sq.Name)
			}
			handRows := collectVectorized(t, cat, rewriter.SimplifyPlan(build()))
			if len(handRows) == 0 {
				t.Fatalf("%s: hand-built plan returned no rows (fixture too small?)", sq.Name)
			}
			serial := collectVectorized(t, cat, planSQL(t, cat, sq.SQL, 1))
			testutil.MatchRows(t, sq.Name+"/serial", handRows, serial)
			for _, par := range []int{2, 4} {
				prows := collectVectorized(t, cat, planSQL(t, cat, sq.SQL, par))
				testutil.MatchRows(t, sq.Name+"/parallel", handRows, prows)
			}
		})
	}
}

// TestSQLSuiteScansOnlyReferencedColumns walks every suite plan, serial
// and parallel, and fails if a scan carries a column that no operator
// above it and none of its own filters reads. It tracks, bottom-up,
// which scan column each operator output forwards unchanged, then marks
// every scan column some expression reads — independently of how the
// pruning pass itself computes the set.
func TestSQLSuiteScansOnlyReferencedColumns(t *testing.T) {
	cat := tpchFixture(t)
	for _, sq := range tpch.SQLSuite() {
		for _, par := range []int{1, 2} {
			plan := planSQL(t, cat, sq.SQL, par)
			u := &colUse{read: map[*algebra.ScanNode][]bool{}}
			u.readAll(u.lineage(plan)) // the root's outputs are read
			for scan, read := range u.read {
				if len(scan.Cols) == 1 {
					continue // a scan must keep one column to count rows
				}
				for i, ok := range read {
					if !ok {
						t.Errorf("%s par=%d: scan %s carries unread column %d (table column %d)",
							sq.Name, par, scan.Table, i, scan.Cols[i])
					}
				}
			}
		}
	}
}

// scanCol is one scan column an operator output forwards unchanged.
type scanCol struct {
	scan *algebra.ScanNode
	pos  int
}

// fwd lists, per output column, the scan columns it forwards unchanged:
// none for a computed column, several below a union.
type fwd [][]scanCol

type colUse struct{ read map[*algebra.ScanNode][]bool }

func (u *colUse) readAll(cols fwd) {
	for _, srcs := range cols {
		for _, c := range srcs {
			u.read[c.scan][c.pos] = true
		}
	}
}

// readRefs marks the scan columns behind every column reference of s.
func (u *colUse) readRefs(in fwd, ss ...algebra.Scalar) {
	for _, s := range ss {
		if s == nil {
			continue
		}
		_, _ = algebra.RewriteScalar(s, func(leaf algebra.Scalar) (algebra.Scalar, error) {
			if c, ok := leaf.(*algebra.ColRef); ok {
				u.readAll(in[c.Idx : c.Idx+1])
			}
			return leaf, nil
		})
	}
}

// lineage returns what each output column of n forwards, marking every
// column n's own expressions read.
func (u *colUse) lineage(n algebra.Node) fwd {
	switch t := n.(type) {
	case *algebra.ScanNode:
		u.read[t] = make([]bool, len(t.Cols))
		out := make(fwd, len(t.Cols))
		for i := range out {
			out[i] = []scanCol{{scan: t, pos: i}}
		}
		u.readRefs(out, t.Filters...)
		return out
	case *algebra.SelectNode:
		in := u.lineage(t.Input)
		u.readRefs(in, t.Pred)
		return in
	case *algebra.ProjectNode:
		in := u.lineage(t.Input)
		out := make(fwd, len(t.Exprs))
		for i, e := range t.Exprs {
			if c, ok := e.(*algebra.ColRef); ok {
				out[i] = in[c.Idx]
			} else {
				u.readRefs(in, e)
			}
		}
		return out
	case *algebra.AggNode:
		in := u.lineage(t.Input)
		u.readRefs(in, t.GroupBy...)
		for _, a := range t.Aggs {
			u.readRefs(in, a.Arg)
		}
		return make(fwd, t.Schema().Len())
	case *algebra.JoinNode:
		l, r := u.lineage(t.Left), u.lineage(t.Right)
		u.readRefs(l, t.LeftKeys...)
		u.readRefs(r, t.RightKeys...)
		if t.Type == algebra.JoinInner || t.Type == algebra.JoinLeftOuter {
			return append(l, r...)
		}
		return l
	case *algebra.SortNode:
		in := u.lineage(t.Input)
		for _, k := range t.Keys {
			u.readRefs(in, k.Expr)
		}
		return in
	case *algebra.LimitNode:
		return u.lineage(t.Input)
	case *algebra.UnionAllNode:
		out := make(fwd, t.Schema().Len())
		for _, c := range t.Inputs {
			for i, srcs := range u.lineage(c) {
				out[i] = append(out[i], srcs...)
			}
		}
		return out
	default:
		panic("unexpected plan node")
	}
}
