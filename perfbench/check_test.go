package main

import (
	"encoding/json"
	"slices"
	"testing"

	"vectorwise/internal/vtypes"
)

func i64(v int64) vtypes.Value   { return vtypes.I64Value(v) }
func f64(v float64) vtypes.Value { return vtypes.F64Value(v) }
func str(s string) vtypes.Value  { return vtypes.StrValue(s) }

// ref is a result ordered by column 1 descending: rows 2 and 3 tie on
// it, so they may come in either order.
func ref() []vtypes.Row {
	return []vtypes.Row{
		{str("a"), f64(300.25), i64(1)},
		{str("b"), f64(200.5), i64(2)},
		{str("c"), f64(100.125), i64(3)},
		{str("d"), f64(100.125), i64(4)},
	}
}

func cloneRows(rs []vtypes.Row) []vtypes.Row {
	out := make([]vtypes.Row, len(rs))
	for i, r := range rs {
		out[i] = slices.Clone(r)
	}
	return out
}

func TestCompareRowsAccepts(t *testing.T) {
	tied := cloneRows(ref())
	tied[2], tied[3] = tied[3], tied[2]
	noisy := cloneRows(ref())
	noisy[1][1] = f64(200.5 * (1 + 1e-9))
	shuffled := cloneRows(ref())
	shuffled[0], shuffled[3] = shuffled[3], shuffled[0]
	for _, tc := range []struct {
		name      string
		got       []vtypes.Row
		orderCols []int
	}{
		{"identical", ref(), []int{1}},
		{"tied rows swapped", tied, []int{1}},
		{"float within tolerance", noisy, []int{1}},
		{"unordered query reordered", shuffled, nil},
	} {
		if err := compareRows(ref(), tc.got, tc.orderCols); err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
	}
}

func TestCompareRowsRejects(t *testing.T) {
	floatOff := cloneRows(ref())
	floatOff[1][1] = f64(200.5 * (1 + 1e-4))
	missing := cloneRows(ref())[:3]
	duplicated := cloneRows(ref())
	duplicated[3] = slices.Clone(duplicated[0])
	swapped := cloneRows(ref())
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for _, tc := range []struct {
		name string
		got  []vtypes.Row
	}{
		{"float off by more than the tolerance", floatOff},
		{"missing row", missing},
		{"row replaced by a duplicate", duplicated},
		{"rows swapped in an ORDER BY result", swapped},
	} {
		if err := compareRows(ref(), tc.got, []int{1}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// dmlFixture is a model with three commits after the load: commit 1
// updates key 0, commit 2 deletes key 1, commit 3 inserts key 3.
func dmlFixture() *dmlModel {
	m := newDMLModel([]dmlRow{{grp: 0, bal: 10}, {grp: 1, bal: 20}, {grp: 1, bal: 30}}, 2)
	m.apply(map[int64]*dmlRow{0: {grp: 0, bal: 15}})
	m.apply(map[int64]*dmlRow{1: nil})
	m.apply(map[int64]*dmlRow{3: {grp: 0, bal: 1}})
	return m
}

func TestDMLModelWindows(t *testing.T) {
	m := dmlFixture()
	// The GROUP BY result as of commit 2: group 0 = {15}, group 1 = {30}.
	atCommit2 := []vtypes.Row{{i64(0), i64(1), i64(15)}, {i64(1), i64(1), i64(30)}}
	if err := m.checkGroupRead(atCommit2, 1, 3); err != nil {
		t.Errorf("group read inside its window rejected: %v", err)
	}
	if err := m.checkGroupRead(atCommit2, 0, 1); err == nil {
		t.Error("group read matching no commit in its window accepted")
	}
	if err := m.checkGroupRead(atCommit2, 3, 3); err == nil {
		t.Error("group read of an older commit accepted")
	}
	// A float-typed SUM must still be exact.
	floatSum := []vtypes.Row{{i64(0), i64(1), f64(15)}, {i64(1), i64(1), f64(30.5)}}
	if err := m.checkGroupRead(floatSum, 0, 3); err == nil {
		t.Error("group read with an inexact sum accepted")
	}

	key1 := []vtypes.Row{{i64(1), i64(1), i64(20)}}
	if err := m.checkPointRead(1, key1, 0, 1); err != nil {
		t.Errorf("point read of a live key rejected: %v", err)
	}
	if err := m.checkPointRead(1, key1, 2, 3); err == nil {
		t.Error("point read of a key deleted before the window accepted")
	}
	if err := m.checkPointRead(1, nil, 2, 3); err != nil {
		t.Errorf("empty point read of a deleted key rejected: %v", err)
	}
	if err := m.checkPointRead(3, nil, 0, 2); err != nil {
		t.Errorf("empty point read before the insert rejected: %v", err)
	}
	if err := m.checkPointRead(0, []vtypes.Row{{i64(0), i64(0), i64(99)}}, 0, 3); err == nil {
		t.Error("point read with a value no commit wrote accepted")
	}
}

func TestCheckTable(t *testing.T) {
	m := dmlFixture()
	full := []vtypes.Row{{i64(0), i64(0), i64(15)}, {i64(2), i64(1), i64(30)}, {i64(3), i64(0), i64(1)}}
	if err := checkTable(m.live, full); err != nil {
		t.Errorf("matching table rejected: %v", err)
	}
	if err := checkTable(m.live, full[:2]); err == nil {
		t.Error("table missing a row accepted")
	}
	dup := []vtypes.Row{full[0], full[0], full[2]}
	if err := checkTable(m.live, dup); err == nil {
		t.Error("table with a duplicated row accepted")
	}
}

func TestCheckJSONRows(t *testing.T) {
	date, err := vtypes.ParseDate("1996-01-02")
	if err != nil {
		t.Fatal(err)
	}
	want := []vtypes.Row{{i64(7), f64(1234.5), vtypes.DateValue(date), str("O")}}
	ok := [][]any{{json.Number("7"), json.Number("1234.5000000001"), "1996-01-02", "O"}}
	if err := checkJSONRows(want, ok); err != nil {
		t.Errorf("matching response rejected: %v", err)
	}
	for name, got := range map[string][][]any{
		"float off":   {{json.Number("7"), json.Number("1234.6"), "1996-01-02", "O"}},
		"wrong date":  {{json.Number("7"), json.Number("1234.5"), "1996-01-03", "O"}},
		"missing row": {},
		"null value":  {{json.Number("7"), nil, "1996-01-02", "O"}},
	} {
		if err := checkJSONRows(want, got); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
