// Package algebra defines the engine-neutral relational algebra that the
// optimizer produces and that each execution engine consumes:
//
//   - the X100 cross-compiler (internal/xcompile) translates it into
//     vectorized core operators — the paper's "cross compiler [7] that
//     translates optimized relational plans into algebraic X100 plans";
//   - the tuple-at-a-time baseline (internal/tupleengine) interprets it
//     row by row, Volcano style;
//   - the column-at-a-time baseline (internal/matengine) interprets it
//     with full materialization, MonetDB style.
//
// Having one plan language consumed by three engines is what makes the
// paper's comparisons (and our differential correctness tests) apples to
// apples: same plan, different execution discipline.
package algebra

import (
	"fmt"
	"strings"

	"vectorwise/internal/vtypes"
)

// Node is a relational operator in a plan tree.
type Node interface {
	// Schema is the node's output schema.
	Schema() *vtypes.Schema
	// Children returns input nodes (for rewriters and explainers).
	Children() []Node
}

// ScanNode reads a column projection of a base table.
type ScanNode struct {
	// Table is the catalog name.
	Table string
	// Cols are column indexes into the table's full schema, or
	// RowPosCol for the row-position output.
	Cols []int
	// Out is the projected schema (filled by the planner).
	Out *vtypes.Schema
	// Partition restricts the scan to row groups [Lo, Hi); Hi == 0
	// means the whole table. Set by the parallel rewriter.
	PartLo, PartHi int
	// Filters are sargable conjuncts pushed into the scan by the
	// planner (see PushFiltersIntoScans): each is a comparison,
	// BETWEEN or IN over one output column of this scan against
	// literals or parameter slots. The execution engine both
	// evaluates them right after decompression (so downstream
	// operators see pre-filtered batches) and derives row-group
	// min/max pruning from them; serial engines evaluate them as an
	// ordinary selection. ColRef indexes are positions in Cols, i.e.
	// the scan's output schema.
	Filters []Scalar
}

// RowPosCol in ScanNode.Cols selects the row-position output: each
// row's 0-based position (BIGINT) in the image the scan reads — the
// stable image merged with the PDT layers it resolves. UPDATE and
// DELETE plans read it to address the rows they change; SQL cannot
// name it. Only the vectorized engine executes it.
const RowPosCol = -1

// RowPosColumn is the schema entry of the row-position output.
var RowPosColumn = vtypes.Column{Name: "rowpos", Kind: vtypes.KindI64}

// HasRowPos reports whether the scan outputs the row position.
func (s *ScanNode) HasRowPos() bool {
	for _, c := range s.Cols {
		if c == RowPosCol {
			return true
		}
	}
	return false
}

// Schema implements Node.
func (s *ScanNode) Schema() *vtypes.Schema { return s.Out }

// Children implements Node.
func (s *ScanNode) Children() []Node { return nil }

// SelectNode filters rows by a boolean scalar expression.
type SelectNode struct {
	Input Node
	Pred  Scalar
}

// Schema implements Node.
func (s *SelectNode) Schema() *vtypes.Schema { return s.Input.Schema() }

// Children implements Node.
func (s *SelectNode) Children() []Node { return []Node{s.Input} }

// ProjectNode computes one scalar per output column.
type ProjectNode struct {
	Input Node
	Exprs []Scalar
	Names []string
}

// Schema implements Node.
func (p *ProjectNode) Schema() *vtypes.Schema {
	cols := make([]vtypes.Column, len(p.Exprs))
	for i, e := range p.Exprs {
		cols[i] = vtypes.Column{Name: p.Names[i], Kind: e.Kind()}
	}
	return &vtypes.Schema{Cols: cols}
}

// Children implements Node.
func (p *ProjectNode) Children() []Node { return []Node{p.Input} }

// AggFn names an aggregate function in the algebra.
type AggFn uint8

// Aggregate functions.
const (
	AggSum AggFn = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
	AggAvg
)

func (f AggFn) String() string {
	return [...]string{"sum", "count", "count(*)", "min", "max", "avg"}[f]
}

// AggExpr is one aggregate column.
type AggExpr struct {
	Fn  AggFn
	Arg Scalar // nil for COUNT(*)
}

// Kind returns the aggregate's result kind.
func (a AggExpr) Kind() vtypes.Kind {
	switch a.Fn {
	case AggCount, AggCountStar:
		return vtypes.KindI64
	case AggAvg:
		return vtypes.KindF64
	default:
		return a.Arg.Kind()
	}
}

// AggNode groups and aggregates.
type AggNode struct {
	Input   Node
	GroupBy []Scalar
	Aggs    []AggExpr
	Names   []string // group names then agg names
}

// Schema implements Node.
func (a *AggNode) Schema() *vtypes.Schema {
	cols := make([]vtypes.Column, 0, len(a.GroupBy)+len(a.Aggs))
	for i, g := range a.GroupBy {
		cols = append(cols, vtypes.Column{Name: a.Names[i], Kind: g.Kind()})
	}
	for i, ag := range a.Aggs {
		cols = append(cols, vtypes.Column{Name: a.Names[len(a.GroupBy)+i], Kind: ag.Kind()})
	}
	return &vtypes.Schema{Cols: cols}
}

// Children implements Node.
func (a *AggNode) Children() []Node { return []Node{a.Input} }

// JoinType mirrors the engine join types.
type JoinType uint8

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeftSemi
	JoinLeftAnti
	JoinLeftOuter
)

func (t JoinType) String() string {
	return [...]string{"inner", "semi", "anti", "leftouter"}[t]
}

// JoinNode is an equi-join; key lists align pairwise.
type JoinNode struct {
	Left, Right         Node
	LeftKeys, RightKeys []Scalar
	Type                JoinType
}

// Schema implements Node.
func (j *JoinNode) Schema() *vtypes.Schema {
	var cols []vtypes.Column
	cols = append(cols, j.Left.Schema().Cols...)
	if j.Type == JoinInner || j.Type == JoinLeftOuter {
		for _, c := range j.Right.Schema().Cols {
			oc := c
			if j.Type == JoinLeftOuter {
				oc.Nullable = true
			}
			cols = append(cols, oc)
		}
	}
	return &vtypes.Schema{Cols: cols}
}

// Children implements Node.
func (j *JoinNode) Children() []Node { return []Node{j.Left, j.Right} }

// SortKey is one ORDER BY term.
type SortKey struct {
	Expr Scalar
	Desc bool
}

// SortNode orders its input.
type SortNode struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *SortNode) Schema() *vtypes.Schema { return s.Input.Schema() }

// Children implements Node.
func (s *SortNode) Children() []Node { return []Node{s.Input} }

// LimitNode passes at most N rows.
type LimitNode struct {
	Input Node
	N     int64
}

// Schema implements Node.
func (l *LimitNode) Schema() *vtypes.Schema { return l.Input.Schema() }

// Children implements Node.
func (l *LimitNode) Children() []Node { return []Node{l.Input} }

// UnionAllNode concatenates same-schema inputs. The parallel rewriter
// emits it as the algebraic form of the Xchange union; serial engines
// execute children in sequence.
type UnionAllNode struct {
	Inputs []Node
}

// Schema implements Node.
func (u *UnionAllNode) Schema() *vtypes.Schema { return u.Inputs[0].Schema() }

// Children implements Node.
func (u *UnionAllNode) Children() []Node { return u.Inputs }

// Explain renders a plan tree as an indented string.
func Explain(n Node) string {
	return explain(n, 0)
}

func explain(n Node, depth int) string {
	pad := ""
	for i := 0; i < depth; i++ {
		pad += "  "
	}
	var line string
	switch t := n.(type) {
	case *ScanNode:
		cols := make([]string, len(t.Cols))
		for i, c := range t.Cols {
			cols[i] = fmt.Sprint(c)
			if c == RowPosCol {
				cols[i] = RowPosColumn.Name
			}
		}
		line = fmt.Sprintf("Scan %s cols=[%s]", t.Table, strings.Join(cols, " "))
		if t.PartHi > 0 {
			line += fmt.Sprintf(" part=[%d,%d)", t.PartLo, t.PartHi)
		}
		if len(t.Filters) > 0 {
			var parts []string
			for _, f := range t.Filters {
				parts = append(parts, f.String())
			}
			line += " filters=[" + strings.Join(parts, " and ") + "]"
		}
	case *SelectNode:
		line = fmt.Sprintf("Select %s", t.Pred)
	case *ProjectNode:
		line = fmt.Sprintf("Project %v", t.Names)
	case *AggNode:
		line = fmt.Sprintf("Aggregate groups=%d aggs=%d", len(t.GroupBy), len(t.Aggs))
	case *JoinNode:
		line = fmt.Sprintf("HashJoin %s", t.Type)
	case *SortNode:
		line = fmt.Sprintf("Sort keys=%d", len(t.Keys))
	case *LimitNode:
		line = fmt.Sprintf("Limit %d", t.N)
	case *UnionAllNode:
		line = fmt.Sprintf("XchgUnion width=%d", len(t.Inputs))
	default:
		line = fmt.Sprintf("%T", n)
	}
	out := pad + line + "\n"
	for _, c := range n.Children() {
		out += explain(c, depth+1)
	}
	return out
}
