package vectorwise

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/plancache"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/storage"
	"vectorwise/internal/testutil"
	"vectorwise/internal/vtypes"
)

// Column-pruning differential: every statement's pruned plan (the one
// the DB caches and runs) must return the same rows as its unpruned
// plan, built directly from the planner and the simplifier, at
// parallelism 1 and 2 and through the plan cache with $N parameters.
// The fixture spans several row groups (so parallelism 2 partitions
// scans), has nullable columns, and carries committed PDT deltas (so
// merged scans run over column subsets).

// pruneFixture builds tables fa (fk, fs, fv NULL, fd, fn NULL) and
// fb (bk, bw, bx NULL) in small row groups, then commits an INSERT, an
// UPDATE of a column most statements never read, and a DELETE on fa.
func pruneFixture(t *testing.T) *DB {
	t.Helper()
	base, err := vtypes.ParseDate("1995-01-01")
	if err != nil {
		t.Fatal(err)
	}
	fa := storage.NewBuilder("fa", vtypes.NewSchema(
		vtypes.Column{Name: "fk", Kind: vtypes.KindI64},
		vtypes.Column{Name: "fs", Kind: vtypes.KindStr},
		vtypes.Column{Name: "fv", Kind: vtypes.KindF64, Nullable: true},
		vtypes.Column{Name: "fd", Kind: vtypes.KindDate},
		vtypes.Column{Name: "fn", Kind: vtypes.KindI64, Nullable: true},
	), 128)
	for i := 0; i < 700; i++ {
		fv := vtypes.F64Value(float64(i%53) + 0.5)
		if i%7 == 0 {
			fv = vtypes.NullValue(vtypes.KindF64)
		}
		fn := vtypes.I64Value(int64(i%11 + 1))
		if i%5 == 0 {
			fn = vtypes.NullValue(vtypes.KindI64)
		}
		if err := fa.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)),
			vtypes.StrValue(fmt.Sprintf("s%02d", i%17)),
			fv,
			vtypes.DateValue(base + int64(i/3)),
			fn,
		}); err != nil {
			t.Fatal(err)
		}
	}
	fb := storage.NewBuilder("fb", vtypes.NewSchema(
		vtypes.Column{Name: "bk", Kind: vtypes.KindI64},
		vtypes.Column{Name: "bw", Kind: vtypes.KindStr},
		vtypes.Column{Name: "bx", Kind: vtypes.KindI64, Nullable: true},
	), 64)
	for i := 0; i < 300; i++ {
		bx := vtypes.I64Value(int64(i % 9))
		if i%4 == 0 {
			bx = vtypes.NullValue(vtypes.KindI64)
		}
		if err := fb.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i * 3)), // every third fk has a match
			vtypes.StrValue(fmt.Sprintf("w%d", i%6)),
			bx,
		}); err != nil {
			t.Fatal(err)
		}
	}
	db := OpenMemory()
	t.Cleanup(func() { db.Close() })
	for _, b := range []*storage.Builder{fa, fb} {
		tbl, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		db.RegisterTable(tbl)
	}
	mustExec(t, db, `INSERT INTO fa VALUES (900, 'ins', 1.5, DATE '1995-03-01', 4), (901, 'ins', NULL, DATE '1995-03-02', NULL)`)
	mustExec(t, db, `UPDATE fa SET fn = 99 WHERE fk >= 100 AND fk < 140`)
	mustExec(t, db, `DELETE FROM fa WHERE fk >= 300 AND fk < 330`)
	return db
}

// unprunedRows runs a statement's unpruned plan — planner, simplifier
// and (at parallelism > 1) the parallel rewrite, but no PruneColumns —
// on the DB's current snapshot.
func unprunedRows(t *testing.T, db *DB, text string, args []any) ([]vtypes.Row, algebra.Node) {
	t.Helper()
	vals, err := bindArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sql.Parse(plancache.Normalize(text))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	db.mu.RLock()
	plan, err := (&sql.Planner{Cat: db.cat}).PlanQuery(st.AST)
	if err != nil {
		db.mu.RUnlock()
		t.Fatal(err)
	}
	plan = rewriter.SimplifyPlan(plan)
	template := plan
	if db.Parallelism > 1 {
		plan = rewriter.Parallelize(plan, db.cat, db.Parallelism)
	}
	if len(vals) > 0 {
		if plan, err = algebra.BindParams(plan, vals); err != nil {
			db.mu.RUnlock()
			t.Fatal(err)
		}
	}
	rows, err := db.openRowsLocked(context.Background(), plan)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.collect()
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows, template
}

// scanWidth sums the column counts of every scan in a plan.
func scanWidth(n algebra.Node) int {
	w := 0
	if s, ok := n.(*algebra.ScanNode); ok {
		w += len(s.Cols)
	}
	for _, c := range n.Children() {
		w += scanWidth(c)
	}
	return w
}

func TestPruneColumnsDifferential(t *testing.T) {
	db := pruneFixture(t)
	cases := []struct {
		name    string
		sql     string
		args    []any
		ordered bool
	}{
		{name: "count-star", sql: `SELECT COUNT(*) FROM fa`},
		{name: "count-star-param", sql: `SELECT COUNT(*) FROM fa WHERE fk > $1`, args: []any{250}},
		{name: "where-only", sql: `SELECT fs FROM fa WHERE fv > $1 AND fd < $2`, args: []any{20.0, "1995-05-01"}},
		{name: "order-by-unselected", sql: `SELECT fs, fn FROM fa WHERE fk < $1 ORDER BY fd DESC, fk LIMIT 25`,
			args: []any{500}, ordered: true},
		{name: "same-column-twice", sql: `SELECT fk, fk FROM fa WHERE fk < $1`, args: []any{40}},
		{name: "left-outer-right-unused", sql: `SELECT fk, fs FROM fa LEFT OUTER JOIN fb ON fk = bk WHERE fk < $1`,
			args: []any{90}},
		{name: "left-outer-right-used", sql: `SELECT fk, bw, bx FROM fa LEFT JOIN fb ON fk = bk WHERE fk < $1`,
			args: []any{90}},
		{name: "semi", sql: `SELECT fk, fv FROM fa SEMI JOIN fb ON fk = bk WHERE bx > $1`, args: []any{4}},
		{name: "anti", sql: `SELECT fs FROM fa ANTI JOIN fb ON fk = bk WHERE fn < $1`, args: []any{6}},
		{name: "in-subquery", sql: `SELECT fs, fd FROM fa WHERE fk IN (SELECT bk FROM fb WHERE bw = $1)`,
			args: []any{"w2"}},
		{name: "not-in-subquery", sql: `SELECT COUNT(*) FROM fa WHERE fk NOT IN (SELECT bk FROM fb WHERE bx < $1)`,
			args: []any{3}},
		{name: "scalar-subquery", sql: `SELECT fk FROM fa WHERE fv > (SELECT AVG(fv) FROM fa WHERE fn = $1)`,
			args: []any{3}},
		{name: "union", sql: `SELECT fk FROM fa WHERE fk < $1 UNION SELECT bk FROM fb WHERE bx = 2`, args: []any{60}},
		{name: "union-all", sql: `SELECT fs, fk FROM fa WHERE fk < $1 UNION ALL SELECT bw, bk FROM fb`, args: []any{30}},
		{name: "intersect", sql: `SELECT fk FROM fa INTERSECT SELECT bk FROM fb WHERE bw <> $1`, args: []any{"w1"}},
		{name: "except", sql: `SELECT fk, fs FROM fa WHERE fd > $1 EXCEPT SELECT bk, bw FROM fb`, args: []any{"1995-04-01"}},
		{name: "nullable-aggregates", sql: `SELECT SUM(fv), COUNT(fn), MIN(fn), MAX(fv), AVG(fv), COUNT(*) FROM fa WHERE fd > $1`,
			args: []any{"1995-02-01"}},
		{name: "grouped-join", sql: `SELECT bw, SUM(fv), COUNT(*) FROM fa JOIN fb ON fk = bk WHERE fk > $1 GROUP BY bw HAVING COUNT(*) > 2`,
			args: []any{10}},
		{name: "deltas", sql: `SELECT fk, fn FROM fa WHERE fk >= $1 AND fk < $2`, args: []any{95, 340}},
		{name: "deltas-inserted", sql: `SELECT fs, fv FROM fa WHERE fk > $1`, args: []any{800}},
	}
	for _, par := range []int{1, 2} {
		db.SetParallelism(par)
		for _, tc := range cases {
			label := fmt.Sprintf("%s/par=%d", tc.name, par)
			want, template := unprunedRows(t, db, tc.sql, tc.args)
			if len(want) == 0 {
				t.Fatalf("%s: the fixture yields no rows, so nothing is compared", label)
			}
			for rep := 0; rep < 2; rep++ { // plan-cache miss, then hit
				got, err := db.QueryArgs(tc.sql, tc.args...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if tc.ordered {
					matchOrdered(t, label, want, got.Rows)
				} else {
					testutil.MatchRows(t, label, want, got.Rows)
				}
			}
			if pruned, err := rewriter.PruneColumns(template); err != nil || scanWidth(pruned) > scanWidth(template) {
				t.Fatalf("%s: pruning failed (%v) or widened the scans", label, err)
			}
		}
	}
	if s := db.PlanCacheStats(); s.Hits == 0 {
		t.Fatalf("plan cache never hit: %+v", s)
	}
}

func matchOrdered(t *testing.T, label string, want, got []vtypes.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: row counts differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		testutil.MatchRows(t, fmt.Sprintf("%s row %d", label, i), want[i:i+1], got[i:i+1])
	}
}

// TestPruneColumnsNarrowsFixtureScans pins the shapes the differential
// relies on: the pass really narrows, keeps one column for COUNT(*),
// and leaves set-operation branches at full width.
func TestPruneColumnsNarrowsFixtureScans(t *testing.T) {
	db := pruneFixture(t)
	db.SetParallelism(1)
	for _, tc := range []struct{ sql, want string }{
		{`SELECT COUNT(*) FROM fa`, "Scan fa cols=[0]"},
		{`SELECT fs FROM fa WHERE fv > 1.0`, "Scan fa cols=[1 2] filters=[(#1 > 1)]"},
		{`SELECT fs FROM fa ORDER BY fd`, "Scan fa cols=[1 3]"},
		{`SELECT fk, fs FROM fa LEFT JOIN fb ON fk = bk`, "Scan fb cols=[0]"},
		{`SELECT fk FROM fa SEMI JOIN fb ON fk = bk WHERE bw = 'w1'`, "Scan fb cols=[0 1] filters=[(#1 = w1)]"},
		{`SELECT fk FROM fa UNION SELECT bk FROM fb`, "Scan fb cols=[0]"},
	} {
		plan, err := db.Explain(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, tc.want) {
			t.Errorf("%s: want %q in plan\n%s", tc.sql, tc.want, plan)
		}
	}
}
