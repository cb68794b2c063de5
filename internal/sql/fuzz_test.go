package sql

import (
	"strings"
	"testing"
)

// FuzzParse throws arbitrary statement text at the lexer and parser.
// The invariants are: never panic, never hang; on success the reported
// placeholder count covers every ParamExpr in the tree (so a prepared
// statement can always validate its arguments); and query statements
// round-trip through the renderer (parse → render → parse yields a
// tree that renders identically).
func FuzzParse(f *testing.F) {
	seeds := []string{
		`SELECT k, v FROM t WHERE k = ?`,
		`SELECT v FROM t WHERE k = $1 AND v > $2`,
		`SELECT v FROM t WHERE k BETWEEN ? AND ? ORDER BY v DESC LIMIT 5`,
		`SELECT v FROM t WHERE k IN (?, ?, 3) AND s LIKE 'a%'`,
		`SELECT k, SUM(v) s FROM t GROUP BY k HAVING SUM(v) > ?`,
		`SELECT a.k FROM a JOIN b ON a.k = b.k WHERE b.v = $1`,
		`INSERT INTO t VALUES (?, ?), ($3, $4)`,
		`UPDATE t SET v = v + ? WHERE k = ?`,
		`DELETE FROM t WHERE d = DATE '2011-04-05' OR k = ?`,
		`SELECT CASE WHEN v > ? THEN 1 ELSE 0 END FROM t`,
		`SELECT v FROM t WHERE v IS NOT NULL AND k = $12`,
		`SELECT -? * (2 + $1) FROM t`,
		`CREATE TABLE t (k BIGINT, v DOUBLE NULL)`,
		`SELECT '?' , ' $1 ' FROM t WHERE s = '??'`,
		`select v from t where k = ?; `,
		`$`, `?`, `$0`, `$99999999999999999999`,
		// The grammar tranche: outer joins, set operations, ORDER BY
		// expressions, scalar and IN subqueries.
		`SELECT a, v FROM t LEFT OUTER JOIN u ON t.k = u.k WHERE v IS NULL`,
		`SELECT k FROM t UNION ALL SELECT k FROM u ORDER BY k LIMIT 9`,
		`SELECT k FROM t UNION SELECT k FROM u EXCEPT SELECT k FROM v`,
		`SELECT k FROM t INTERSECT SELECT k FROM u`,
		`SELECT k FROM t WHERE v > (SELECT AVG(v) FROM t)`,
		`SELECT k FROM t WHERE k IN (SELECT k FROM u WHERE v > ?)`,
		`SELECT k FROM t WHERE k NOT IN (SELECT k FROM u)`,
		`SELECT k, SUM(v) FROM t GROUP BY k ORDER BY SUM(v) DESC, k + 1`,
		`UPDATE u SET v = v + 1 WHERE k - (k/10)*10 = $1 OR k % 7 = ?`,
		`SELECT k % 3 * 2, -v % (k + 1) FROM t WHERE v%2 = 0`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := Parse(input)
		if err != nil {
			return
		}
		stmt, n := st.AST, st.NumParams
		if n < 0 {
			t.Fatalf("negative param count %d for %q", n, input)
		}
		maxIdx := 0
		walkParams(stmt, func(p *ParamExpr) {
			if p.Idx > maxIdx {
				maxIdx = p.Idx
			}
			if p.Idx < 1 {
				t.Fatalf("non-positive param ordinal %d in %q", p.Idx, input)
			}
		})
		if maxIdx > n {
			t.Fatalf("param count %d misses ordinal %d in %q", n, maxIdx, input)
		}
		// Placeholders only appear where the grammar allows them; the
		// count must be stable across a reparse of the same text.
		st2, err2 := Parse(input)
		if err2 != nil || st2.NumParams != n {
			t.Fatalf("reparse of %q: n=%d→%d err=%v", input, n, st2.NumParams, err2)
		}
		st2.Release()
		// Round-trip property: the renderer emits exactly the dialect
		// the parser accepts, and rendering is a fixed point.
		switch stmt.(type) {
		case *SelectStmt, *SetOpStmt:
			text := RenderStmt(stmt)
			rt, err := Parse(text)
			if err != nil {
				t.Fatalf("render of %q is unparseable: %q: %v", input, text, err)
			}
			if again := RenderStmt(rt.AST); again != text {
				t.Fatalf("round-trip diverged for %q:\n%q\n%q", input, text, again)
			}
			rt.Release()
		}
		_ = strings.TrimSpace(input)
	})
}

// walkParams visits every ParamExpr in a statement.
func walkParams(s Stmt, fn func(*ParamExpr)) {
	var walkStmt func(Stmt)
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch t := e.(type) {
		case nil:
		case *ParamExpr:
			fn(t)
		case *BinExpr:
			walkExpr(t.L)
			walkExpr(t.R)
		case *NotExpr:
			walkExpr(t.In)
		case *BetweenExpr:
			walkExpr(t.In)
			walkExpr(t.Lo)
			walkExpr(t.Hi)
		case *InExpr:
			walkExpr(t.In)
			for _, m := range t.List {
				walkExpr(m)
			}
		case *LikeExpr:
			walkExpr(t.In)
		case *IsNullExpr:
			walkExpr(t.In)
		case *CaseExpr:
			walkExpr(t.Cond)
			walkExpr(t.Then)
			walkExpr(t.Else)
		case *AggCall:
			walkExpr(t.Arg)
		case *FuncCall:
			walkExpr(t.Arg)
		case *SubqueryExpr:
			walkStmt(t.Sel)
		case *InSubExpr:
			walkExpr(t.In)
			walkStmt(t.Sel)
		}
	}
	walkStmt = func(s Stmt) {
		switch t := s.(type) {
		case *SelectStmt:
			for _, it := range t.Items {
				walkExpr(it.Expr)
			}
			for _, j := range t.Joins {
				for _, on := range j.On {
					walkExpr(on.L)
					walkExpr(on.R)
				}
			}
			walkExpr(t.Where)
			for _, g := range t.GroupBy {
				walkExpr(g)
			}
			walkExpr(t.Having)
			for _, o := range t.OrderBy {
				walkExpr(o.Expr)
			}
		case *SetOpStmt:
			walkStmt(t.Left)
			walkStmt(t.Right)
			for _, o := range t.OrderBy {
				walkExpr(o.Expr)
			}
		case *InsertStmt:
			for _, row := range t.Rows {
				for _, e := range row {
					walkExpr(e)
				}
			}
		case *UpdateStmt:
			for _, e := range t.SetExprs {
				walkExpr(e)
			}
			walkExpr(t.Where)
		case *DeleteStmt:
			walkExpr(t.Where)
		}
	}
	walkStmt(s)
}

// Warm parses must stay allocation-free apart from the Pratt loop's
// fixed overhead: the arena is reused, token text borrows the source.
func TestParseWarmAllocs(t *testing.T) {
	queries := []string{
		`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
		   SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
		   AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
		 FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'
		 GROUP BY l_returnflag, l_linestatus
		 ORDER BY l_returnflag, l_linestatus`,
		`SELECT k FROM t WHERE k IN (SELECT k FROM u) UNION ALL SELECT k FROM v ORDER BY k`,
		`UPDATE t SET v = v + 1, s = 'x' WHERE k BETWEEN ? AND ?`,
	}
	a := NewArena()
	for _, q := range queries {
		// Warm the arena so block allocation has already happened.
		if _, err := Parse(q, WithArena(a)); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			if _, err := Parse(q, WithArena(a)); err != nil {
				t.Fatal(err)
			}
		})
		if n > 8 {
			t.Errorf("warm parse of %.40q allocates %.0f times, want ≤ 8", q, n)
		}
	}
}
