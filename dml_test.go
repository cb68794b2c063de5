package vectorwise

// UPDATE and DELETE run through the SELECT engine: a scan with pushed
// filters and a row-position output, a vectorized filter, and a
// projection of the SET expressions. These tests pin the plan shape,
// the snapshot semantics that rule out the Halloween problem, and the
// NULL behaviour of the comparison kernels both DML and SELECT share.

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/sql"
	"vectorwise/internal/vtypes"
)

// TestUpdatePlanScansOnlyReadColumns: the benchmark's ranged UPDATE
// compiles to a scan of k, bal and the row position only, with the
// BETWEEN pushed into the scan (so min/max pruning applies) and no
// residual Select.
func TestUpdatePlanScansOnlyReadColumns(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (k BIGINT, grp BIGINT, bal BIGINT)`)
	st, err := sql.Parse(`UPDATE t SET bal = bal + $1 WHERE k BETWEEN $2 AND $3`)
	if err != nil {
		t.Fatal(err)
	}
	ent, err := db.cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	params := []vtypes.Value{vtypes.I64Value(5), vtypes.I64Value(100), vtypes.I64Value(109)}
	plan, setCols, err := db.updatePlan(st.AST.(*sql.UpdateStmt), ent.Table.Schema(), params)
	if err != nil {
		t.Fatal(err)
	}
	got := algebra.Explain(plan)
	want := "Project [rowpos bal]\n  Scan t cols=[0 2 rowpos] filters=[" +
		(&algebra.Between{In: &algebra.ColRef{Idx: 0, K: vtypes.KindI64}, Lo: params[1], Hi: params[2]}).String() + "]\n"
	if got != want {
		t.Fatalf("plan:\n%s\nwant:\n%s", got, want)
	}
	if fmt.Sprint(setCols) != "[2]" {
		t.Fatalf("SET targets %v, want [2]", setCols)
	}
}

// TestUpdateHalloween: an UPDATE that moves every row further into its
// own WHERE range touches each row exactly once — the scan reads the
// statement's snapshot, never the rows it has already changed. The
// table carries committed deltas (inserts, a delete, a modify) across
// several row groups, so the row positions come from the merge.
func TestUpdateHalloween(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE h (k BIGINT, v BIGINT)`)
	const n = 5000
	ks, vs := make([]int64, n), make([]int64, n)
	for i := range ks {
		ks[i], vs[i] = int64(i), int64(i%7)
	}
	if _, err := db.LoadBatch("h", []any{ks, vs}, nil); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO h VALUES (5000, 1), (5001, 2)`)
	mustExec(t, db, `DELETE FROM h WHERE k = 17`)
	mustExec(t, db, `UPDATE h SET v = 100 WHERE k = 4000`)
	for _, round := range []int64{1, 2} {
		got, err := db.Exec(`UPDATE h SET k = k + 1 WHERE k >= 0`)
		if err != nil {
			t.Fatal(err)
		}
		if got != n+1 {
			t.Fatalf("round %d: UPDATE touched %d rows, want %d", round, got, n+1)
		}
		res, err := db.Query(`SELECT COUNT(*), MIN(k), MAX(k), SUM(k) FROM h`)
		if err != nil {
			t.Fatal(err)
		}
		// Keys 0..5001 without 17, each raised by round.
		sum := int64(5001*5002/2) - 17 + round*(n+1)
		want := fmt.Sprintf("[[%d %d %d %d]]", n+1, round, 5001+round, sum)
		if g := fmt.Sprint(res.Rows); g != want {
			t.Fatalf("round %d: %s, want %s", round, g, want)
		}
	}
}

// TestComparisonsNeverSelectNull: a comparison, BETWEEN, IN or LIKE
// over a NULL operand is never true — the vectorized kernels compare
// the safe value stored under a NULL, so they must drop NULL rows.
// SELECT and DML share the kernels and must agree.
func TestComparisonsNeverSelectNull(t *testing.T) {
	for _, tc := range []struct {
		where string
		want  int64
	}{
		{`v <> 10`, 2},
		{`v BETWEEN 0 AND 15`, 1},
		{`v IN (0, 10)`, 1},
		{`v < k`, 0},
		{`s NOT LIKE 'a%'`, 2},
		{`s LIKE '%'`, 3},
		{`NOT (v > 15)`, 1}, // simplified to v <= 15
	} {
		t.Run(tc.where, func(t *testing.T) {
			db := OpenMemory()
			defer db.Close()
			mustExec(t, db, `CREATE TABLE p (k BIGINT, v BIGINT NULL, s VARCHAR NULL)`)
			mustExec(t, db, `INSERT INTO p VALUES (1, 10, 'a'), (2, NULL, NULL), (3, 20, 'b'), (4, NULL, NULL), (5, 50, 'c')`)
			for _, par := range []int{1, 2} {
				db.SetParallelism(par)
				res, err := db.Query(`SELECT COUNT(*) FROM p WHERE ` + tc.where)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Rows[0][0].I64; got != tc.want {
					t.Errorf("par=%d SELECT COUNT(*): %d, want %d", par, got, tc.want)
				}
			}
			if got, err := db.Exec(`UPDATE p SET k = k WHERE ` + tc.where); err != nil || got != tc.want {
				t.Errorf("UPDATE: %d rows (%v), want %d", got, err, tc.want)
			}
			if got, err := db.Exec(`DELETE FROM p WHERE ` + tc.where); err != nil || got != tc.want {
				t.Errorf("DELETE: %d rows (%v), want %d", got, err, tc.want)
			}
			res, err := db.Query(`SELECT COUNT(*) FROM p`)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].I64; got != 5-tc.want {
				t.Errorf("after DELETE %d rows remain, want %d", got, 5-tc.want)
			}
		})
	}
}

// TestDMLErrors: a bad SET column or an ill-typed SET value fails the
// statement and leaves the table unchanged.
func TestDMLErrors(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	mustExec(t, db, `CREATE TABLE e (k BIGINT, d DATE)`)
	mustExec(t, db, `INSERT INTO e VALUES (1, '1995-01-01'), (2, '1996-01-01')`)
	for _, q := range []string{
		`UPDATE e SET nope = 1`,
		`UPDATE e SET d = 'not a date' WHERE k = 2`,
	} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%s: want an error", q)
		}
	}
	res, err := db.Query(`SELECT k, d FROM e ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); !strings.Contains(got, "1996-01-01") {
		t.Fatalf("failed UPDATE changed the table: %s", got)
	}
}
