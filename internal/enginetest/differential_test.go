// Package enginetest cross-checks the three execution engines — the
// vectorized X100 core, the tuple-at-a-time Volcano baseline, and the
// column-at-a-time materializing baseline — on identical algebra plans.
// Any divergence is a bug in one of them; this is both our correctness
// net and the foundation of the paper's engine comparisons (same plan,
// same storage, different execution discipline).
package enginetest

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/catalog"
	"vectorwise/internal/core"
	"vectorwise/internal/matengine"
	"vectorwise/internal/pdt"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/storage"
	"vectorwise/internal/tupleengine"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/xcompile"
)

// fixture builds a catalog with two related tables.
func fixture(t testing.TB, rows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()

	items := vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "grp", Kind: vtypes.KindI64},
		vtypes.Column{Name: "price", Kind: vtypes.KindF64},
		vtypes.Column{Name: "qty", Kind: vtypes.KindI64},
		vtypes.Column{Name: "mode", Kind: vtypes.KindStr},
		vtypes.Column{Name: "shipped", Kind: vtypes.KindDate},
	)
	ib := storage.NewBuilder("items", items, 200)
	modes := []string{"RAIL", "AIR", "TRUCK", "SHIP"}
	rng := rand.New(rand.NewSource(11))
	base := vtypes.MustParseDate("1995-01-01")
	for i := 0; i < rows; i++ {
		if err := ib.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)),
			vtypes.I64Value(rng.Int63n(20)),
			vtypes.F64Value(float64(rng.Intn(10000)) / 100),
			vtypes.I64Value(rng.Int63n(50) + 1),
			vtypes.StrValue(modes[rng.Intn(len(modes))]),
			vtypes.DateValue(base + rng.Int63n(1000)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	itbl, err := ib.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(itbl)

	grps := vtypes.NewSchema(
		vtypes.Column{Name: "gid", Kind: vtypes.KindI64},
		vtypes.Column{Name: "gname", Kind: vtypes.KindStr},
	)
	gb := storage.NewBuilder("grps", grps, 64)
	for i := 0; i < 15; i++ { // deliberately missing groups 15..19
		if err := gb.AppendRow(vtypes.Row{
			vtypes.I64Value(int64(i)), vtypes.StrValue(fmt.Sprintf("g-%02d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	gtbl, err := gb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(gtbl)
	return cat
}

// runAll executes the plan on all three engines, returning sorted row
// renderings.
func runAll(t testing.TB, cat *catalog.Catalog, plan algebra.Node) (vec, tup, mat []string) {
	t.Helper()
	op, err := xcompile.Compile(plan, cat, xcompile.Options{})
	if err != nil {
		t.Fatalf("xcompile: %v", err)
	}
	vrows, err := core.Collect(op)
	if err != nil {
		t.Fatalf("vectorized run: %v", err)
	}
	trows, err := tupleengine.Run(plan, cat)
	if err != nil {
		t.Fatalf("tuple run: %v", err)
	}
	mrows, err := matengine.Run(plan, cat)
	if err != nil {
		t.Fatalf("materialized run: %v", err)
	}
	return render(vrows), render(trows), render(mrows)
}

// render canonicalizes rows: floats rounded to tolerate summation-order
// differences across engines.
func render(rows []vtypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var parts []string
		for _, v := range r {
			if !v.Null && v.Kind == vtypes.KindF64 {
				parts = append(parts, fmt.Sprintf("%.6f", v.F64))
				continue
			}
			parts = append(parts, v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func expectEqual(t *testing.T, name string, vec, tup, mat []string) {
	t.Helper()
	if len(vec) != len(tup) || len(vec) != len(mat) {
		t.Fatalf("%s: row counts differ: vec=%d tuple=%d mat=%d", name, len(vec), len(tup), len(mat))
	}
	for i := range vec {
		if vec[i] != tup[i] {
			t.Fatalf("%s row %d: vectorized %q != tuple %q", name, i, vec[i], tup[i])
		}
		if vec[i] != mat[i] {
			t.Fatalf("%s row %d: vectorized %q != materialized %q", name, i, vec[i], mat[i])
		}
	}
}

func colRef(i int, k vtypes.Kind) algebra.Scalar { return &algebra.ColRef{Idx: i, K: k} }
func lit(v vtypes.Value) algebra.Scalar          { return &algebra.Lit{Val: v} }

func scanItems(cols ...int) *algebra.ScanNode {
	full := []vtypes.Column{
		{Name: "id", Kind: vtypes.KindI64},
		{Name: "grp", Kind: vtypes.KindI64},
		{Name: "price", Kind: vtypes.KindF64},
		{Name: "qty", Kind: vtypes.KindI64},
		{Name: "mode", Kind: vtypes.KindStr},
		{Name: "shipped", Kind: vtypes.KindDate},
	}
	var out []vtypes.Column
	for _, c := range cols {
		out = append(out, full[c])
	}
	return &algebra.ScanNode{Table: "items", Cols: cols, Out: &vtypes.Schema{Cols: out}}
}

func TestDifferentialFilterProject(t *testing.T) {
	cat := fixture(t, 2000)
	mul, err := algebra.NewArith(algebra.OpMul, colRef(1, vtypes.KindF64), colRef(2, vtypes.KindI64))
	if err != nil {
		t.Fatal(err)
	}
	plan := &algebra.ProjectNode{
		Input: &algebra.SelectNode{
			Input: scanItems(0, 2, 3, 4),
			Pred: &algebra.And{Preds: []algebra.Scalar{
				&algebra.Cmp{Op: algebra.CmpLt, L: colRef(1, vtypes.KindF64), R: lit(vtypes.F64Value(50))},
				&algebra.In{In: colRef(3, vtypes.KindStr), List: []vtypes.Value{vtypes.StrValue("RAIL"), vtypes.StrValue("AIR")}},
			}},
		},
		Exprs: []algebra.Scalar{colRef(0, vtypes.KindI64), mul},
		Names: []string{"id", "value"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "filter-project", vec, tup, mat)
}

func TestDifferentialAggregation(t *testing.T) {
	cat := fixture(t, 3000)
	plan := &algebra.AggNode{
		Input:   scanItems(1, 2, 3),
		GroupBy: []algebra.Scalar{colRef(0, vtypes.KindI64)},
		Aggs: []algebra.AggExpr{
			{Fn: algebra.AggSum, Arg: colRef(1, vtypes.KindF64)},
			{Fn: algebra.AggCountStar},
			{Fn: algebra.AggMin, Arg: colRef(2, vtypes.KindI64)},
			{Fn: algebra.AggMax, Arg: colRef(2, vtypes.KindI64)},
			{Fn: algebra.AggAvg, Arg: colRef(1, vtypes.KindF64)},
		},
		Names: []string{"grp", "total", "n", "minq", "maxq", "avgp"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "aggregate", vec, tup, mat)
}

// TestDifferentialAggregatesOverEmptyInput pins SQL's empty-input rule
// in all three engines, serially and under the parallel rewrite (whose
// per-partition partials are all empty here): an ungrouped aggregate
// yields one row with COUNT 0 and SUM/MIN/MAX/AVG NULL; a grouped one
// yields no rows.
func TestDifferentialAggregatesOverEmptyInput(t *testing.T) {
	cat := fixture(t, 3000)
	empty := func() algebra.Node {
		return &algebra.SelectNode{Input: scanItems(1, 2, 3),
			Pred: &algebra.Cmp{Op: algebra.CmpLt, L: colRef(1, vtypes.KindF64), R: lit(vtypes.F64Value(-1))}}
	}
	aggs := []algebra.AggExpr{
		{Fn: algebra.AggSum, Arg: colRef(1, vtypes.KindF64)},
		{Fn: algebra.AggSum, Arg: colRef(2, vtypes.KindI64)},
		{Fn: algebra.AggCountStar},
		{Fn: algebra.AggCount, Arg: colRef(2, vtypes.KindI64)},
		{Fn: algebra.AggMin, Arg: colRef(2, vtypes.KindI64)},
		{Fn: algebra.AggMax, Arg: colRef(1, vtypes.KindF64)},
		{Fn: algebra.AggAvg, Arg: colRef(2, vtypes.KindI64)},
	}
	names := []string{"sp", "sq", "n", "nq", "minq", "maxp", "avgq"}
	for _, par := range []int{1, 4} {
		global := algebra.Node(&algebra.AggNode{Input: empty(), Aggs: aggs, Names: names})
		grouped := algebra.Node(&algebra.AggNode{Input: empty(), GroupBy: []algebra.Scalar{colRef(0, vtypes.KindI64)},
			Aggs: aggs, Names: append([]string{"grp"}, names...)})
		if par > 1 {
			global = rewriter.Parallelize(global, cat, par)
			grouped = rewriter.Parallelize(grouped, cat, par)
			if _, ok := global.(*algebra.ProjectNode); !ok {
				t.Fatalf("par=%d: the global aggregate was not parallelized:\n%s", par, algebra.Explain(global))
			}
		}
		vec, tup, mat := runAll(t, cat, global)
		expectEqual(t, fmt.Sprintf("empty-global/par=%d", par), vec, tup, mat)
		if want := "NULL|NULL|0|0|NULL|NULL|NULL"; len(vec) != 1 || vec[0] != want {
			t.Fatalf("par=%d: empty global aggregate = %v, want [%s]", par, vec, want)
		}
		vec, tup, mat = runAll(t, cat, grouped)
		expectEqual(t, fmt.Sprintf("empty-grouped/par=%d", par), vec, tup, mat)
		if len(vec) != 0 {
			t.Fatalf("par=%d: empty grouped aggregate = %v, want no rows", par, vec)
		}
	}

	// Only the first row group matches: the other partitions' NULL
	// partials must not reach the final MIN/MAX/SUM.
	firstGroup := &algebra.SelectNode{Input: scanItems(1, 2, 3, 0),
		Pred: &algebra.Cmp{Op: algebra.CmpLt, L: colRef(3, vtypes.KindI64), R: lit(vtypes.I64Value(150))}}
	partly := &algebra.AggNode{Input: firstGroup, Aggs: aggs, Names: names}
	serial, _, _ := runAll(t, cat, partly)
	vec, tup, mat := runAll(t, cat, rewriter.Parallelize(partly, cat, 4))
	expectEqual(t, "partly-empty/par=4", vec, tup, mat)
	if len(serial) != 1 || vec[0] != serial[0] || strings.Contains(vec[0], "NULL") {
		t.Fatalf("partly empty partitions: parallel %v, serial %v", vec, serial)
	}
}

// nullableFixture catalogs nv(g BIGINT, v BIGINT NULL, f DOUBLE NULL):
// 1000 rows in groups of 100, NULL-free for the first 300 rows.
func nullableFixture(t *testing.T) (*catalog.Catalog, *storage.Table) {
	t.Helper()
	cat := catalog.New()
	b := storage.NewBuilder("nv", vtypes.NewSchema(
		vtypes.Column{Name: "g", Kind: vtypes.KindI64},
		vtypes.Column{Name: "v", Kind: vtypes.KindI64, Nullable: true},
		vtypes.Column{Name: "f", Kind: vtypes.KindF64, Nullable: true},
	), 100)
	for i := 0; i < 1000; i++ {
		g := int64(i % 8)
		v, f := vtypes.I64Value(int64(i)), vtypes.F64Value(float64(i)/4)
		if i >= 300 {
			g = int64(i % 12)
			if g >= 7 || i%3 == 0 { // g = 7 saw values only before its NULLs
				v, f = vtypes.NullValue(vtypes.KindI64), vtypes.NullValue(vtypes.KindF64)
			}
		}
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(g), v, f}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cat.Put(tbl)
	return cat, tbl
}

// TestDifferentialModulo: `%` over integers and floats, with NULL
// operands and zero divisors, agrees in all three engines; a NULL
// operand yields NULL and modulo by zero yields 0.
func TestDifferentialModulo(t *testing.T) {
	cat, tbl := nullableFixture(t)
	scan := &algebra.ScanNode{Table: "nv", Cols: []int{0, 1, 2}, Out: tbl.Schema()}
	mod := func(l, r algebra.Scalar) algebra.Scalar {
		a, err := algebra.NewArith(algebra.OpMod, l, r)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	g, v, f := colRef(0, vtypes.KindI64), colRef(1, vtypes.KindI64), colRef(2, vtypes.KindF64)
	plan := &algebra.ProjectNode{Input: scan, Exprs: []algebra.Scalar{
		mod(v, lit(vtypes.I64Value(7))),
		mod(g, v), // v = 0 in the first row
		mod(f, lit(vtypes.F64Value(2.5))),
		mod(lit(vtypes.I64Value(-9)), g), // g = 0 in every eighth row
	}, Names: []string{"a", "b", "c", "d"}}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "modulo", vec, tup, mat)
	nulls := 0
	for _, r := range vec {
		nulls += strings.Count(r, "NULL")
	}
	if nulls == 0 || !slices.Contains(vec, "0|0|0.000000|0") {
		t.Fatalf("want NULL rows and the all-zero first row, got %v", vec[:5])
	}
}

// TestDifferentialAggregatesSkipNulls: NULL arguments are skipped and an
// all-NULL group aggregates to NULL, identically in all three engines.
// The first row groups hold no NULLs, so the vectorized engine meets its
// first NULL only after groups exist — and in the same batch as groups
// (g >= 8) whose every input is NULL, while group 7 only ever sees
// NULLs after its values.
func TestDifferentialAggregatesSkipNulls(t *testing.T) {
	cat, tbl := nullableFixture(t)
	scan := &algebra.ScanNode{Table: "nv", Cols: []int{0, 1, 2}, Out: tbl.Schema()}
	aggs := []algebra.AggExpr{
		{Fn: algebra.AggSum, Arg: colRef(1, vtypes.KindI64)},
		{Fn: algebra.AggSum, Arg: colRef(2, vtypes.KindF64)},
		{Fn: algebra.AggCount, Arg: colRef(1, vtypes.KindI64)},
		{Fn: algebra.AggCountStar},
		{Fn: algebra.AggMin, Arg: colRef(1, vtypes.KindI64)},
		{Fn: algebra.AggMax, Arg: colRef(2, vtypes.KindF64)},
		{Fn: algebra.AggAvg, Arg: colRef(1, vtypes.KindI64)},
	}
	names := []string{"s", "sf", "c", "n", "lo", "hi", "a"}
	for _, plan := range []algebra.Node{
		&algebra.AggNode{Input: scan, GroupBy: []algebra.Scalar{colRef(0, vtypes.KindI64)}, Aggs: aggs,
			Names: append([]string{"g"}, names...)},
		&algebra.AggNode{Input: scan, Aggs: aggs, Names: names},
	} {
		vec, tup, mat := runAll(t, cat, plan)
		expectEqual(t, "nullable-aggregate", vec, tup, mat)
		nulls := 0
		for _, r := range vec {
			nulls += strings.Count(r, "NULL")
		}
		if len(vec) > 1 && nulls != 4*5 { // groups 8..11: SUM, SUM, MIN, MAX, AVG
			t.Fatalf("want the 4 all-NULL groups to aggregate to NULL, got %v", vec)
		}
	}
}

func TestDifferentialJoins(t *testing.T) {
	cat := fixture(t, 1500)
	gscan := &algebra.ScanNode{Table: "grps", Cols: []int{0, 1},
		Out: vtypes.NewSchema(
			vtypes.Column{Name: "gid", Kind: vtypes.KindI64},
			vtypes.Column{Name: "gname", Kind: vtypes.KindStr})}
	for _, typ := range []algebra.JoinType{algebra.JoinInner, algebra.JoinLeftSemi, algebra.JoinLeftAnti, algebra.JoinLeftOuter} {
		plan := &algebra.JoinNode{
			Left:      scanItems(0, 1, 2),
			Right:     gscan,
			LeftKeys:  []algebra.Scalar{colRef(1, vtypes.KindI64)},
			RightKeys: []algebra.Scalar{colRef(0, vtypes.KindI64)},
			Type:      typ,
		}
		vec, tup, mat := runAll(t, cat, plan)
		expectEqual(t, "join-"+typ.String(), vec, tup, mat)
		if len(vec) == 0 {
			t.Fatalf("join %v produced no rows (fixture should)", typ)
		}
	}
}

func TestDifferentialSortLimit(t *testing.T) {
	cat := fixture(t, 800)
	plan := &algebra.LimitNode{
		N: 25,
		Input: &algebra.SortNode{
			Input: scanItems(0, 2, 4),
			Keys: []algebra.SortKey{
				{Expr: colRef(1, vtypes.KindF64), Desc: true},
				{Expr: colRef(0, vtypes.KindI64)},
			},
		},
	}
	// Sorted output: compare in order (not re-sorted), keys make it
	// deterministic.
	op, err := xcompile.Compile(plan, cat, xcompile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vrows, err := core.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	trows, err := tupleengine.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	mrows, err := matengine.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(vrows) != 25 || len(trows) != 25 || len(mrows) != 25 {
		t.Fatalf("limits: %d %d %d", len(vrows), len(trows), len(mrows))
	}
	for i := range vrows {
		for c := range vrows[i] {
			if !vrows[i][c].Equal(trows[i][c]) || !vrows[i][c].Equal(mrows[i][c]) {
				t.Fatalf("sorted row %d col %d differs: %v %v %v", i, c, vrows[i][c], trows[i][c], mrows[i][c])
			}
		}
	}
}

func TestDifferentialCaseLikeBetweenYear(t *testing.T) {
	cat := fixture(t, 1200)
	isAir, err := algebra.NewCase(
		&algebra.Like{In: colRef(2, vtypes.KindStr), Pattern: "A%"},
		colRef(1, vtypes.KindF64),
		lit(vtypes.F64Value(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	plan := &algebra.AggNode{
		Input: &algebra.SelectNode{
			Input: scanItems(0, 2, 4, 5),
			Pred: &algebra.Or{Preds: []algebra.Scalar{
				&algebra.Between{In: colRef(3, vtypes.KindDate),
					Lo: vtypes.DateValue(vtypes.MustParseDate("1995-06-01")),
					Hi: vtypes.DateValue(vtypes.MustParseDate("1996-06-01"))},
				&algebra.Cmp{Op: algebra.CmpEq, L: colRef(2, vtypes.KindStr), R: lit(vtypes.StrValue("SHIP"))},
			}},
		},
		GroupBy: []algebra.Scalar{&algebra.YearOf{In: colRef(3, vtypes.KindDate)}},
		Aggs: []algebra.AggExpr{
			{Fn: algebra.AggSum, Arg: isAir},
			{Fn: algebra.AggCountStar},
		},
		Names: []string{"year", "airsum", "n"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "case-like-between-year", vec, tup, mat)
}

func TestDifferentialUnionAll(t *testing.T) {
	cat := fixture(t, 1000)
	mk := func(lo, hi int) algebra.Node {
		s := scanItems(0, 1)
		s.PartLo, s.PartHi = lo, hi
		return s
	}
	plan := &algebra.AggNode{
		Input:   &algebra.UnionAllNode{Inputs: []algebra.Node{mk(0, 3), mk(3, 5)}},
		GroupBy: []algebra.Scalar{colRef(1, vtypes.KindI64)},
		Aggs:    []algebra.AggExpr{{Fn: algebra.AggCountStar}},
		Names:   []string{"grp", "n"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "union-all", vec, tup, mat)
}

func TestDifferentialWithPDTLayers(t *testing.T) {
	cat := fixture(t, 600)
	itbl, _, err := cat.Resolve("items")
	if err != nil {
		t.Fatal(err)
	}
	master := pdt.New(itbl.Schema(), itbl.Rows())
	if err := master.Delete(10); err != nil {
		t.Fatal(err)
	}
	if err := master.Modify(20, 2, vtypes.F64Value(123.45)); err != nil {
		t.Fatal(err)
	}
	if err := master.Append(vtypes.Row{
		vtypes.I64Value(9999), vtypes.I64Value(3), vtypes.F64Value(1.25),
		vtypes.I64Value(2), vtypes.StrValue("RAIL"), vtypes.DateValue(9000),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetLayers("items", []*pdt.PDT{master}); err != nil {
		t.Fatal(err)
	}
	plan := &algebra.AggNode{
		Input:   scanItems(1, 2),
		GroupBy: []algebra.Scalar{colRef(0, vtypes.KindI64)},
		Aggs:    []algebra.AggExpr{{Fn: algebra.AggSum, Arg: colRef(1, vtypes.KindF64)}, {Fn: algebra.AggCountStar}},
		Names:   []string{"grp", "s", "n"},
	}
	vec, tup, mat := runAll(t, cat, plan)
	expectEqual(t, "pdt-layers", vec, tup, mat)
}

// TestDifferentialRandomPlans fuzzes simple select-project-aggregate
// plans across the engines.
func TestDifferentialRandomPlans(t *testing.T) {
	cat := fixture(t, 900)
	rng := rand.New(rand.NewSource(77))
	modes := []string{"RAIL", "AIR", "TRUCK", "SHIP"}
	for trial := 0; trial < 25; trial++ {
		var preds []algebra.Scalar
		if rng.Intn(2) == 0 {
			preds = append(preds, &algebra.Cmp{
				Op: algebra.CmpOp(rng.Intn(6)),
				L:  colRef(1, vtypes.KindF64),
				R:  lit(vtypes.F64Value(float64(rng.Intn(100)))),
			})
		}
		if rng.Intn(2) == 0 {
			preds = append(preds, &algebra.Cmp{
				Op: algebra.CmpOp(rng.Intn(6)),
				L:  colRef(2, vtypes.KindI64),
				R:  lit(vtypes.I64Value(rng.Int63n(50))),
			})
		}
		preds = append(preds, &algebra.Like{
			In:      colRef(3, vtypes.KindStr),
			Pattern: "%" + string(modes[rng.Intn(4)][0]) + "%",
			Negate:  rng.Intn(2) == 0,
		})
		var input algebra.Node = scanItems(0, 2, 3, 4)
		input = &algebra.SelectNode{Input: input, Pred: &algebra.And{Preds: preds}}
		plan := &algebra.AggNode{
			Input:   input,
			GroupBy: []algebra.Scalar{colRef(3, vtypes.KindStr)},
			Aggs: []algebra.AggExpr{
				{Fn: algebra.AggSum, Arg: colRef(2, vtypes.KindI64)},
				{Fn: algebra.AggCountStar},
			},
			Names: []string{"mode", "q", "n"},
		}
		vec, tup, mat := runAll(t, cat, plan)
		expectEqual(t, fmt.Sprintf("random-%d", trial), vec, tup, mat)
	}
}
