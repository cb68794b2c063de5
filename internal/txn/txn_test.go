package txn

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"vectorwise/internal/core"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/wal"
)

func buildTable(t *testing.T, name string, n int) *storage.Table {
	t.Helper()
	schema := vtypes.NewSchema(
		vtypes.Column{Name: "id", Kind: vtypes.KindI64},
		vtypes.Column{Name: "val", Kind: vtypes.KindStr},
	)
	b := storage.NewBuilder(name, schema, 64)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(vtypes.Row{vtypes.I64Value(int64(i)), vtypes.StrValue(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// scanAll reads the transaction's view of a table — its snapshot's
// resolved layers with its own write PDT on top — through core.Scan,
// the scan every SQL statement runs.
func scanAll(t *testing.T, tx *Txn, table string) []vtypes.Row {
	t.Helper()
	stable, layers, err := tx.Resolve(table)
	if err != nil {
		t.Fatal(err)
	}
	if w := tx.writes[table]; w != nil {
		layers = append(layers, w)
	}
	cols := make([]int, stable.Schema().Len())
	for i := range cols {
		cols[i] = i
	}
	sc := core.NewScan(stable, cols, core.ScanOpts{VecSize: 16, Layers: layers})
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var rows []vtypes.Row
	for {
		b, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(i))
		}
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 5))
	tx := m.Begin()
	if err := tx.Insert("t", vtypes.Row{vtypes.I64Value(100), vtypes.StrValue("new")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", 0, 1, vtypes.StrValue("patched")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("t", 2); err != nil {
		t.Fatal(err)
	}
	rows := scanAll(t, tx, "t")
	if len(rows) != 5 { // 5 - 1 deleted + 1 inserted
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][1].Str != "patched" {
		t.Fatal("own update not visible")
	}
	if rows[4][0].I64 != 100 {
		t.Fatal("own insert not visible")
	}
	n, err := tx.Rows("t")
	if err != nil || n != 5 {
		t.Fatalf("Rows = %d", n)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 5))

	reader := m.Begin()
	_ = scanAll(t, reader, "t") // pin snapshot

	writer := m.Begin()
	if err := writer.Update("t", 0, 1, vtypes.StrValue("committed")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reader still sees the old image.
	rows := scanAll(t, reader, "t")
	if rows[0][1].Str != "v0" {
		t.Fatal("snapshot isolation violated")
	}
	// A fresh transaction sees the commit.
	fresh := m.Begin()
	rows = scanAll(t, fresh, "t")
	if rows[0][1].Str != "committed" {
		t.Fatal("committed write not visible to new txn")
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 10))

	a := m.Begin()
	b := m.Begin()
	if err := a.Update("t", 3, 1, vtypes.StrValue("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Update("t", 3, 1, vtypes.StrValue("b")); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
	// First committer wins.
	fresh := m.Begin()
	rows := scanAll(t, fresh, "t")
	if rows[3][1].Str != "a" {
		t.Fatal("first committer's write lost")
	}
}

func TestNonConflictingConcurrentCommits(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 10))

	a := m.Begin()
	b := m.Begin()
	if err := a.Update("t", 1, 1, vtypes.StrValue("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Update("t", 8, 1, vtypes.StrValue("b")); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("non-overlapping writes must both commit: %v", err)
	}
	rows := scanAll(t, m.Begin(), "t")
	if rows[1][1].Str != "a" || rows[8][1].Str != "b" {
		t.Fatal("merged commits wrong")
	}
}

func TestRebaseAcrossInsertShift(t *testing.T) {
	// Txn B updates row 8 while txn A inserts at position 0 and commits
	// first: B's RID 8 must rebase to the shifted position.
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 10))

	a := m.Begin()
	b := m.Begin()
	if err := a.InsertAt("t", 0, vtypes.Row{vtypes.I64Value(999), vtypes.StrValue("front")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Update("t", 8, 1, vtypes.StrValue("updated")); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("insert at 0 and update at 8 must not conflict: %v", err)
	}
	rows := scanAll(t, m.Begin(), "t")
	if rows[0][0].I64 != 999 {
		t.Fatal("front insert lost")
	}
	// Original row 8 is now at position 9.
	if rows[9][1].Str != "updated" || rows[9][0].I64 != 8 {
		t.Fatalf("rebase failed: row 9 = %v", rows[9])
	}
}

func TestAbortDiscards(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 3))
	tx := m.Begin()
	if err := tx.Update("t", 0, 1, vtypes.StrValue("x")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatal("commit after abort must fail")
	}
	rows := scanAll(t, m.Begin(), "t")
	if rows[0][1].Str != "v0" {
		t.Fatal("aborted write leaked")
	}
}

func TestClosedTxnRejectsOps(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 3))
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", vtypes.Row{vtypes.I64Value(0), vtypes.StrValue("")}); !errors.Is(err, ErrClosed) {
		t.Fatal("insert on closed txn must fail")
	}
	if err := tx.Delete("t", 0); !errors.Is(err, ErrClosed) {
		t.Fatal("delete on closed txn must fail")
	}
	if err := tx.Update("t", 0, 0, vtypes.I64Value(1)); !errors.Is(err, ErrClosed) {
		t.Fatal("update on closed txn must fail")
	}
	if _, _, err := tx.Resolve("t"); !errors.Is(err, ErrClosed) {
		t.Fatal("resolve on closed txn must fail")
	}
	if _, err := tx.Rows("t"); !errors.Is(err, ErrClosed) {
		t.Fatal("rows on closed txn must fail")
	}
}

func TestUnknownTable(t *testing.T) {
	m := NewManager(nil)
	tx := m.Begin()
	if err := tx.Insert("nope", vtypes.Row{}); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, _, err := m.MasterPDT("nope"); err == nil {
		t.Fatal("unknown table must error")
	}
	if err := m.Checkpoint("nope"); err == nil {
		t.Fatal("unknown table must error")
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "vw.wal")

	// Session 1: commit two transactions, leave one aborted.
	log1, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatal("fresh WAL must be empty")
	}
	tbl := buildTable(t, "t", 10)
	m1 := NewManager(log1)
	m1.Register(tbl)
	tx := m1.Begin()
	_ = tx.Update("t", 0, 1, vtypes.StrValue("first"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := m1.Begin()
	_ = tx2.Insert("t", vtypes.Row{vtypes.I64Value(777), vtypes.StrValue("ins")})
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3 := m1.Begin()
	_ = tx3.Update("t", 5, 1, vtypes.StrValue("never"))
	tx3.Abort()
	log1.Close()

	// Session 2: recover from the WAL over the original stable table.
	log2, recs2, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	m2 := NewManager(log2)
	m2.Register(tbl)
	if err := m2.Recover(recs2); err != nil {
		t.Fatal(err)
	}
	rows := scanAll(t, m2.Begin(), "t")
	if len(rows) != 11 {
		t.Fatalf("recovered %d rows, want 11", len(rows))
	}
	if rows[0][1].Str != "first" {
		t.Fatal("recovered update lost")
	}
	if rows[10][0].I64 != 777 {
		t.Fatal("recovered insert lost")
	}
	for _, r := range rows {
		if r[1].Str == "never" {
			t.Fatal("aborted txn leaked through recovery")
		}
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "vw.wal")
	log1, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log1.Append(1, wal.KindData, "t", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := log1.Append(1, wal.KindCommit, "", nil); err != nil {
		t.Fatal(err)
	}
	log1.Close()

	// Corrupt the tail by appending garbage.
	f, err := osOpenAppend(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn tail must be dropped, got %d records", len(recs))
	}
	data := wal.CommittedTxns(recs)
	if len(data) != 1 || string(data[0].Data) != "payload" {
		t.Fatal("committed record lost")
	}
}

func TestCheckpointFlattens(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 10))
	tx := m.Begin()
	_ = tx.Delete("t", 0)
	_ = tx.Insert("t", vtypes.Row{vtypes.I64Value(42), vtypes.StrValue("new")})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint("t"); err != nil {
		t.Fatal(err)
	}
	master, stable, err := m.MasterPDT("t")
	if err != nil {
		t.Fatal(err)
	}
	if !master.Empty() {
		t.Fatal("checkpoint must reset master PDT")
	}
	if stable.Rows() != 10 {
		t.Fatalf("checkpointed stable has %d rows", stable.Rows())
	}
	rows := scanAll(t, m.Begin(), "t")
	if rows[0][0].I64 != 1 || rows[9][0].I64 != 42 {
		t.Fatal("checkpointed image wrong")
	}
	// Idempotent when master is empty.
	if err := m.Checkpoint("t"); err != nil {
		t.Fatal(err)
	}
}

func TestManyTransactionsSequential(t *testing.T) {
	m := NewManager(nil)
	m.Register(buildTable(t, "t", 100))
	for i := 0; i < 60; i++ {
		tx := m.Begin()
		switch i % 3 {
		case 0:
			if err := tx.Insert("t", vtypes.Row{vtypes.I64Value(int64(1000 + i)), vtypes.StrValue("x")}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tx.Update("t", int64(i), 1, vtypes.StrValue("upd")); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := tx.Delete("t", int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	rows := scanAll(t, m.Begin(), "t")
	want := 100 + 20 - 20
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
}
