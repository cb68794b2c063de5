package main

// Answer checkers. Every result the benchmark times is compared with a
// reference computed independently of the path under test: the
// tuple-at-a-time engine on hand-built plans for TPC-H, values read
// straight from the generated tables for the HTTP lookups, and an exact
// integer model kept by the writer for the DML workload.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vectorwise/internal/vtypes"
)

// relTol is the relative float tolerance: parallel partial sums reorder
// float addition, so aggregates may differ in the last digits.
const relTol = 1e-6

// valueClose compares two values, floats within relTol.
func valueClose(a, b vtypes.Value) bool {
	if a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	if a.Kind == vtypes.KindF64 || b.Kind == vtypes.KindF64 {
		return floatClose(a.AsFloat(), b.AsFloat())
	}
	return a.Equal(b)
}

func floatClose(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

func rowClose(a, b vtypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if !valueClose(a[c], b[c]) {
			return false
		}
	}
	return true
}

// compareRows checks got against the reference want. The rows must match
// as a multiset; where the query has an ORDER BY, orderCols lists the
// output columns it sorts on, and those columns must also match position
// by position. Rows that tie on every sort column may come in any order.
func compareRows(want, got []vtypes.Row, orderCols []int) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if err := sameMultiset(want, got); err != nil {
		return err
	}
	for i := range want {
		for _, c := range orderCols {
			if !valueClose(want[i][c], got[i][c]) {
				return fmt.Errorf("row %d out of order: sort column %d is %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	return nil
}

// sameMultiset matches rows as multisets. Both sides are sorted on a
// canonical order and compared pairwise; only if that fails (floats
// within tolerance can sort differently) does it fall back to a greedy
// quadratic match.
func sameMultiset(want, got []vtypes.Row) error {
	a, b := slices.Clone(want), slices.Clone(got)
	slices.SortFunc(a, canonicalCmp)
	slices.SortFunc(b, canonicalCmp)
	pairwise := true
	for i := range a {
		if !rowClose(a[i], b[i]) {
			pairwise = false
			break
		}
	}
	if pairwise {
		return nil
	}
	used := make([]bool, len(b))
outer:
	for _, w := range a {
		for j, g := range b {
			if !used[j] && rowClose(w, g) {
				used[j] = true
				continue outer
			}
		}
		return fmt.Errorf("row %v missing from the result", w)
	}
	return nil
}

// canonicalCmp orders rows on their non-float columns first, then on
// their floats, so float noise perturbs the order as little as possible.
func canonicalCmp(x, y vtypes.Row) int {
	for pass := 0; pass < 2; pass++ {
		for c := range x {
			isFloat := x[c].Kind == vtypes.KindF64
			if isFloat != (pass == 1) {
				continue
			}
			if r := cmpValue(x[c], y[c]); r != 0 {
				return r
			}
		}
	}
	return 0
}

func cmpValue(a, b vtypes.Value) int {
	if a.Null || b.Null {
		return cmp.Compare(boolInt(a.Null), boolInt(b.Null))
	}
	switch a.Kind {
	case vtypes.KindF64:
		return cmp.Compare(a.F64, b.AsFloat())
	case vtypes.KindStr:
		return cmp.Compare(a.Str, b.Str)
	case vtypes.KindBool:
		return cmp.Compare(boolInt(a.B), boolInt(b.B))
	default:
		return cmp.Compare(a.I64, b.I64)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// groupAgg is one group's row count and balance sum in the DML model.
type groupAgg struct{ count, sum int64 }

// dmlRow is one live row of the DML table.
type dmlRow struct{ grp, bal int64 }

// keyVersion is a key's state from commit onward.
type keyVersion struct {
	commit  int
	present bool
	row     dmlRow
}

// dmlModel is the writer's exact model of the DML table after every
// acknowledged commit. Commit 0 is the loaded table. The writer alone
// mutates it while the workload runs; readers' results are checked
// against it afterwards.
type dmlModel struct {
	base    []dmlRow               // rows of the loaded table, key = index
	live    map[int64]dmlRow       // current state, every live key
	groups  [][]groupAgg           // groups[c] = per-group aggregates after commit c
	history map[int64][]keyVersion // versions of keys changed since the load
}

func newDMLModel(base []dmlRow, numGroups int) *dmlModel {
	m := &dmlModel{base: base, live: make(map[int64]dmlRow, len(base)), history: map[int64][]keyVersion{}}
	g := make([]groupAgg, numGroups)
	for k, r := range base {
		m.live[int64(k)] = r
		g[r.grp].count++
		g[r.grp].sum += r.bal
	}
	m.groups = [][]groupAgg{g}
	return m
}

// commits returns the index of the latest commit in the model.
func (m *dmlModel) commits() int { return len(m.groups) - 1 }

// apply records one commit: rows set (present) or removed (absent).
func (m *dmlModel) apply(changes map[int64]*dmlRow) {
	c := len(m.groups)
	g := slices.Clone(m.groups[c-1])
	for k, nr := range changes {
		if old, ok := m.live[k]; ok {
			g[old.grp].count--
			g[old.grp].sum -= old.bal
		}
		v := keyVersion{commit: c}
		if nr != nil {
			m.live[k] = *nr
			g[nr.grp].count++
			g[nr.grp].sum += nr.bal
			v.present, v.row = true, *nr
		} else {
			delete(m.live, k)
		}
		m.history[k] = append(m.history[k], v)
	}
	m.groups = append(m.groups, g)
}

// keyAt returns key k's state after commit c.
func (m *dmlModel) keyAt(k int64, c int) (dmlRow, bool) {
	hist := m.history[k]
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].commit <= c {
			return hist[i].row, hist[i].present
		}
	}
	if k >= 0 && k < int64(len(m.base)) {
		return m.base[k], true
	}
	return dmlRow{}, false
}

// checkGroupRead checks a `grp, COUNT(*), SUM(bal) ... GROUP BY grp`
// result read between commits lo and hi (inclusive): it must equal the
// model at one commit in that window.
func (m *dmlModel) checkGroupRead(rows []vtypes.Row, lo, hi int) error {
	for c := lo; c <= hi && c < len(m.groups); c++ {
		if groupsEqual(rows, m.groups[c]) {
			return nil
		}
	}
	return fmt.Errorf("GROUP BY read matches no commit in [%d, %d]", lo, hi)
}

func groupsEqual(rows []vtypes.Row, want []groupAgg) bool {
	n := 0
	for _, g := range want {
		if g.count > 0 {
			n++
		}
	}
	if len(rows) != n {
		return false
	}
	for _, r := range rows {
		if len(r) != 3 || r[0].Null || r[0].I64 < 0 || r[0].I64 >= int64(len(want)) {
			return false
		}
		g := want[r[0].I64]
		if r[1].I64 != g.count || !exactInt(r[2], g.sum) {
			return false
		}
	}
	return true
}

// exactInt reports whether v holds exactly the integer x, whether the
// engine typed the sum as BIGINT or DOUBLE.
func exactInt(v vtypes.Value, x int64) bool {
	if v.Null {
		return false
	}
	if v.Kind == vtypes.KindF64 {
		return v.F64 == float64(x)
	}
	return v.I64 == x
}

// checkPointRead checks a `k, grp, bal ... WHERE k = $1` result read
// between commits lo and hi.
func (m *dmlModel) checkPointRead(k int64, rows []vtypes.Row, lo, hi int) error {
	for c := lo; c <= hi && c < len(m.groups); c++ {
		r, ok := m.keyAt(k, c)
		if !ok && len(rows) == 0 {
			return nil
		}
		if ok && len(rows) == 1 && len(rows[0]) == 3 &&
			rows[0][0].I64 == k && rows[0][1].I64 == r.grp && rows[0][2].I64 == r.bal {
			return nil
		}
	}
	return fmt.Errorf("point read of k=%d (%v) matches no commit in [%d, %d]", k, rows, lo, hi)
}
