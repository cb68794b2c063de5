package vectorwise

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
)

func TestQuickstartFlow(t *testing.T) {
	db := OpenMemory()
	if _, err := db.Exec(`CREATE TABLE sales (region VARCHAR, amount DOUBLE, day DATE)`); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Exec(`INSERT INTO sales VALUES
		('north', 10.5, DATE '2011-01-01'),
		('south', 20.0, DATE '2011-01-02'),
		('north', 5.25, DATE '2011-02-01')`); err != nil || n != 3 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	res, err := db.Query(`SELECT region, SUM(amount) AS total, COUNT(*) n
		FROM sales GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Columns[1] != "total" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if res.Rows[0][0].Str != "north" || res.Rows[0][1].F64 != 15.75 || res.Rows[0][2].I64 != 2 {
		t.Fatalf("north row wrong: %v", res.Rows[0])
	}
}

func TestUpdateDeleteThroughPDTs(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE kv (k BIGINT, v VARCHAR)`)
	mustExec(t, db, `INSERT INTO kv VALUES (1,'a'), (2,'b'), (3,'c'), (4,'d')`)
	if n, err := db.Exec(`UPDATE kv SET v = 'patched' WHERE k = 2`); err != nil || n != 1 {
		t.Fatalf("update: %d %v", n, err)
	}
	if n, err := db.Exec(`DELETE FROM kv WHERE k > 2`); err != nil || n != 2 {
		t.Fatalf("delete: %d %v", n, err)
	}
	res, err := db.Query(`SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][1].Str != "patched" {
		t.Fatalf("post-DML rows: %v", res.Rows)
	}
}

func TestJoinsThroughSQL(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE dept (did BIGINT, dname VARCHAR)`)
	mustExec(t, db, `CREATE TABLE emp (eid BIGINT, ename VARCHAR, did BIGINT, sal DOUBLE)`)
	mustExec(t, db, `INSERT INTO dept VALUES (1,'eng'), (2,'ops')`)
	mustExec(t, db, `INSERT INTO emp VALUES (1,'ada',1,100), (2,'bob',1,80), (3,'eve',2,90), (4,'sam',9,10)`)

	res, err := db.Query(`SELECT d.dname, SUM(e.sal) total
		FROM emp e JOIN dept d ON e.did = d.did
		GROUP BY d.dname ORDER BY total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "eng" || res.Rows[0][1].F64 != 180 {
		t.Fatalf("join-agg: %v", res.Rows)
	}

	// Anti join: employees with no department.
	res, err = db.Query(`SELECT ename FROM emp e ANTI JOIN dept d ON e.did = d.did`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "sam" {
		t.Fatalf("anti join: %v", res.Rows)
	}

	// Left outer join null-pads.
	res, err = db.Query(`SELECT e.ename, d.dname FROM emp e LEFT JOIN dept d ON e.did = d.did ORDER BY e.eid`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || !res.Rows[3][1].Null {
		t.Fatalf("left join: %v", res.Rows)
	}
}

func TestWherePushdownAndExplain(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE a (x BIGINT)`)
	mustExec(t, db, `CREATE TABLE b (y BIGINT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1),(2),(3)`)
	mustExec(t, db, `INSERT INTO b VALUES (2),(3),(4)`)
	plan, err := db.Explain(`SELECT a.x FROM a JOIN b ON a.x = b.y WHERE a.x > 1 AND b.y < 4`)
	if err != nil {
		t.Fatal(err)
	}
	// Both single-table predicates must push past the join all the way
	// into their scans' filters (the data-skipping rewrite).
	joinPos := indexOf(plan, "HashJoin")
	aPos := indexOf(plan, "Scan a cols=[0] filters=[(#0 > 1)]")
	bPos := indexOf(plan, "Scan b cols=[0] filters=[(#0 < 4)]")
	if joinPos < 0 || aPos < joinPos || bPos < joinPos {
		t.Fatalf("pushdown missing in plan:\n%s", plan)
	}
	res, err := db.Query(`SELECT a.x FROM a JOIN b ON a.x = b.y WHERE a.x > 1 AND b.y < 4 ORDER BY a.x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I64 != 2 || res.Rows[1][0].I64 != 3 {
		t.Fatalf("pushdown query: %v", res.Rows)
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestSQLExpressions(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE t (k BIGINT, s VARCHAR, d DATE, f DOUBLE)`)
	mustExec(t, db, `INSERT INTO t VALUES
		(1, 'promo box', DATE '1995-03-01', 2.0),
		(2, 'plain box', DATE '1996-07-15', 4.0),
		(3, 'promo bag', DATE '1995-11-30', 8.0)`)

	res, err := db.Query(`SELECT SUM(CASE WHEN s LIKE 'promo%' THEN f ELSE 0.0 END) p, SUM(f) tot FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].F64 != 10 || res.Rows[0][1].F64 != 14 {
		t.Fatalf("case/like: %v", res.Rows)
	}

	res, err = db.Query(`SELECT YEAR(d) y, COUNT(*) n FROM t GROUP BY YEAR(d) ORDER BY y`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I64 != 1995 || res.Rows[0][1].I64 != 2 {
		t.Fatalf("year group: %v", res.Rows)
	}

	res, err = db.Query(`SELECT k FROM t WHERE d BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' AND k IN (1, 3) ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("between/in: %v", res.Rows)
	}

	res, err = db.Query(`SELECT k, f * 2 + 1 AS g FROM t WHERE NOT (k = 2) ORDER BY k DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].F64 != 17 {
		t.Fatalf("arith/not/limit: %v", res.Rows)
	}
}

func TestNullHandlingSQL(t *testing.T) {
	db := OpenMemory()
	mustExec(t, db, `CREATE TABLE n (k BIGINT, v BIGINT NULL)`)
	mustExec(t, db, `INSERT INTO n VALUES (1, 10), (2, NULL), (3, 30)`)
	res, err := db.Query(`SELECT k FROM n WHERE v IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I64 != 2 {
		t.Fatalf("is null: %v", res.Rows)
	}
	res, err = db.Query(`SELECT k FROM n WHERE v IS NOT NULL ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("is not null: %v", res.Rows)
	}
}

func TestPersistenceAndWALRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE p (k BIGINT, v VARCHAR)`)
	mustExec(t, db, `INSERT INTO p VALUES (1,'one'), (2,'two')`)
	mustExec(t, db, `UPDATE p SET v = 'TWO' WHERE k = 2`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`SELECT v FROM p ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][0].Str != "TWO" {
		t.Fatalf("recovered rows: %v", res.Rows)
	}

	// Checkpoint flattens PDTs into the stable file and clears the WAL.
	if err := db2.Checkpoint("p"); err != nil {
		t.Fatal(err)
	}
	res, err = db2.Query(`SELECT v FROM p ORDER BY k`)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("post-checkpoint: %v %v", res.Rows, err)
	}
}

func TestErrorPaths(t *testing.T) {
	db := OpenMemory()
	if _, err := db.Exec(`SELECT 1 FROM nope`); err == nil {
		t.Fatal("Exec of SELECT must error")
	}
	if _, err := db.Query(`DELETE FROM nope`); err == nil {
		t.Fatal("Query of DML must error")
	}
	if _, err := db.Query(`SELECT x FROM missing`); err == nil {
		t.Fatal("missing table must error")
	}
	mustExec(t, db, `CREATE TABLE e (x BIGINT)`)
	if _, err := db.Exec(`CREATE TABLE e (x BIGINT)`); err == nil {
		t.Fatal("duplicate table must error")
	}
	if _, err := db.Exec(`INSERT INTO e VALUES (1, 2)`); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if _, err := db.Query(`SELECT nosuch FROM e`); err == nil {
		t.Fatal("unknown column must error")
	}
	if _, err := db.Query(`SELECT x, SUM(x) FROM e`); err == nil {
		t.Fatal("mixed agg/non-agg without GROUP BY must error")
	}
}

func mustExec(t *testing.T, db *DB, q string) {
	t.Helper()
	if _, err := db.Exec(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// TestAggregatesOverNoRowsAreNull: over zero qualifying rows an
// ungrouped SUM/MIN/MAX/AVG is NULL and COUNT is 0, serially and when
// the parallel rewrite splits the scan into empty partitions — whether
// min/max skipping prunes every group or a residual filter rejects
// every row.
func TestAggregatesOverNoRowsAreNull(t *testing.T) {
	b := storage.NewBuilder("t", vtypes.NewSchema(vtypes.Column{Name: "k", Kind: vtypes.KindI64}), 4)
	for i := 0; i < 40; i++ {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i%10 + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	db := OpenMemory()
	defer db.Close()
	db.RegisterTable(tbl)
	for _, par := range []int{1, 2} {
		db.SetParallelism(par)
		for _, where := range []string{"k > 10", "k * 2 > 20"} {
			q := `SELECT SUM(k), MIN(k), MAX(k), AVG(k), COUNT(*), COUNT(k) FROM t WHERE ` + where
			if plan, err := db.Explain(q); err != nil {
				t.Fatal(err)
			} else if par > 1 && !strings.Contains(plan, "XchgUnion") {
				t.Fatalf("par=%d: %s did not parallelize:\n%s", par, q, plan)
			}
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("par=%d %s: %d rows, want 1", par, where, len(res.Rows))
			}
			r := res.Rows[0]
			for i := 0; i < 4; i++ {
				if !r[i].Null {
					t.Errorf("par=%d %s: column %d = %v, want NULL", par, where, i, r[i])
				}
			}
			for i := 4; i < 6; i++ {
				if r[i].Null || r[i].I64 != 0 {
					t.Errorf("par=%d %s: column %d = %v, want 0", par, where, i, r[i])
				}
			}
		}
		res, err := db.Query(`SELECT k, SUM(k) FROM t WHERE k > 10 GROUP BY k`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("par=%d: grouped aggregate over no rows returned %v", par, res.Rows)
		}
	}
}

// TestAggregatesSkipNulls: aggregates with an argument ignore NULL
// inputs — also AVG under the parallel rewrite, which decomposes it into
// SUM and COUNT of the argument — and a group whose inputs are all NULL
// sums to NULL. Arithmetic over a NULL operand is NULL.
func TestAggregatesSkipNulls(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE p (k BIGINT, v BIGINT NULL)`)
	mustExec(t, db, `INSERT INTO p VALUES (1, 10), (2, NULL), (3, 20), (4, NULL), (5, 50)`)
	for _, par := range []int{1, 2} {
		db.SetParallelism(par)
		for q, want := range map[string]string{
			`SELECT COUNT(v), MIN(v), MAX(v), SUM(v), AVG(v), COUNT(*) FROM p`:   "[[3 10 50 80 26.666666666666668 5]]",
			`SELECT k, SUM(v), AVG(v) FROM p WHERE k <= 2 GROUP BY k ORDER BY k`: "[[1 10 10] [2 NULL NULL]]",
			`SELECT k + v FROM p ORDER BY k`:                                     "[[11] [NULL] [23] [NULL] [55]]",
			`SELECT k % 3, v % 7, (0 - v) % 7, k % 0 FROM p ORDER BY k`:          "[[1 3 -3 0] [2 NULL NULL 0] [0 6 -6 0] [1 NULL NULL 0] [2 1 -1 0]]",
		} {
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Rows); got != want {
				t.Errorf("par=%d %s = %s, want %s", par, q, got, want)
			}
		}
	}
}
