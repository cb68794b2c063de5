package vectorwise

// Tuple-mover tests: deterministic fold/rebuild behavior, and the
// crash-safety windows of the stable-image rebuild. The failpoint hook
// stops a mover pass at a named stage; "crashing" is then just
// abandoning the DB (Close flushes nothing) and reopening from the
// directory, which replays the WAL against whatever stable image the
// interrupted pass left on disk. The recovered state is compared
// against a plain-Go oracle — no delta may be lost or applied twice.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
)

// moverOracle mirrors kv-table contents: key → value.
type moverOracle map[int64]int64

func (o moverOracle) insert(db *DB, t *testing.T, k, v int64) {
	t.Helper()
	if _, err := db.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d)`, k, v)); err != nil {
		t.Fatal(err)
	}
	o[k] = v
}

func (o moverOracle) update(db *DB, t *testing.T, k, v int64) {
	t.Helper()
	if _, err := db.Exec(fmt.Sprintf(`UPDATE kv SET v = %d WHERE k = %d`, v, k)); err != nil {
		t.Fatal(err)
	}
	if _, ok := o[k]; ok {
		o[k] = v
	}
}

func (o moverOracle) delete(db *DB, t *testing.T, k int64) {
	t.Helper()
	if _, err := db.Exec(fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, k)); err != nil {
		t.Fatal(err)
	}
	delete(o, k)
}

// verify compares the table, read through a fresh snapshot, against the
// oracle — exact keys, exact values, exact cardinality.
func (o moverOracle) verify(db *DB, t *testing.T, label string) {
	t.Helper()
	res, err := db.Query(`SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(res.Rows) != len(o) {
		t.Fatalf("%s: %d rows, oracle has %d", label, len(res.Rows), len(o))
	}
	keys := make([]int64, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		if got := res.Rows[i]; got[0].I64 != k || got[1].I64 != o[k] {
			t.Fatalf("%s: row %d = (%d,%d), oracle (%d,%d)", label, i, got[0].I64, got[1].I64, k, o[k])
		}
	}
}

// moverTestDB opens a disk-backed DB with the mover stopped (tests
// drive it manually) and a kv table of n seeded rows.
func moverTestDB(t *testing.T, dir string, n int) (*DB, moverOracle) {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMoverInterval(0)
	if _, err := db.Exec(`CREATE TABLE kv (k BIGINT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	o := moverOracle{}
	for i := 0; i < n; i++ {
		o.insert(db, t, int64(i), int64(i)*10)
	}
	return db, o
}

// TestMoverFoldAndRebuild drives both mover phases deterministically
// and checks visible data is bit-identical before and after each
// reorganization, including through an open cursor pinned across the
// stable swap.
func TestMoverFoldAndRebuild(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k BIGINT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	o := moverOracle{}
	for i := 0; i < 200; i++ {
		o.insert(db, t, int64(i), int64(i))
	}
	o.update(db, t, 7, -7)
	o.delete(db, t, 13)

	// Pin a cursor before any mover activity; it must replay the
	// pre-mover state even after fold + rebuild.
	rows, err := db.QueryContext(nil, `SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	preMover := make(moverOracle, len(o))
	for k, v := range o {
		preMover[k] = v
	}

	// Phase 1 only: threshold disabled → fold, no rebuild.
	db.SetMoverThreshold(0)
	if err := db.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	st := db.MoverStats()
	if st.Folds == 0 || st.Rebuilds != 0 {
		t.Fatalf("after fold-only pass: %+v", st)
	}
	o.verify(db, t, "after fold")

	// More DML on top of the folded state, then a rebuild pass.
	o.insert(db, t, 500, 500)
	o.update(db, t, 0, 999)
	db.SetMoverThreshold(1)
	if err := db.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	if st := db.MoverStats(); st.Rebuilds == 0 {
		t.Fatalf("rebuild pass did not rebuild: %+v", st)
	}
	o.verify(db, t, "after rebuild")

	// The pinned cursor still sees the pre-mover epoch exactly.
	var got int
	for rows.Next() {
		var k, v int64
		if err := rows.Scan(&k, &v); err != nil {
			t.Fatal(err)
		}
		want, ok := preMover[k]
		if !ok || want != v {
			t.Fatalf("pinned cursor row (%d,%d) not in pre-mover oracle", k, v)
		}
		got++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if got != len(preMover) {
		t.Fatalf("pinned cursor yielded %d rows, want %d", got, len(preMover))
	}
}

// moverCrashAt runs the shared crash script: seed a disk-backed DB,
// trip the failpoint at the given stage of a rebuild pass, commit more
// DML after the failed pass, "crash", reopen, and verify against the
// oracle. It exercises both sides of the applied-LSN watermark: crash
// before the image persists (WAL replays everything onto the old
// image) and crash after (replay skips exactly the absorbed records).
func moverCrashAt(t *testing.T, stage string) {
	dir := filepath.Join(t.TempDir(), "db")
	db, o := moverTestDB(t, dir, 100)
	o.update(db, t, 5, -5)
	o.delete(db, t, 6)

	db.SetMoverThreshold(1)
	injected := errors.New("injected crash")
	fired := false
	db.SetMoverFailpoint(func(s string) error {
		if s == stage+":kv" {
			fired = true
			return injected
		}
		return nil
	})
	if err := db.MoveTuples(); !errors.Is(err, injected) {
		t.Fatalf("MoveTuples error = %v, want injected crash", err)
	}
	if !fired {
		t.Fatalf("failpoint %q never fired", stage)
	}
	db.SetMoverFailpoint(nil)

	// The failed pass must not have changed what queries see.
	o.verify(db, t, "after failed pass")

	// Deltas committed after the interrupted pass land in the WAL with
	// LSNs above the (possibly persisted) image's watermark.
	o.insert(db, t, 1000, 1000)
	o.update(db, t, 10, -10)
	o.delete(db, t, 11)

	// Crash: no checkpoint, no flush — just drop the handle.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.SetMoverInterval(0)
	o.verify(db2, t, "recovered after crash at "+stage)

	// Recovered state must still move and survive a clean cycle.
	db2.SetMoverThreshold(1)
	if err := db2.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	o.verify(db2, t, "mover pass after recovery")
}

// TestMoverCrashBeforePersist crashes before the rebuilt image reaches
// disk: the old image plus a full WAL replay must reproduce the oracle.
func TestMoverCrashBeforePersist(t *testing.T) { moverCrashAt(t, "persist") }

// TestMoverCrashBetweenPersistAndSwap crashes in the worst window —
// the new image is durable but was never installed: replay must skip
// exactly the absorbed records (no duplicated deltas) while applying
// the later ones (no lost deltas).
func TestMoverCrashBetweenPersistAndSwap(t *testing.T) { moverCrashAt(t, "swap") }

// TestMoverPersistSurvivesRestart: the happy path end to end — a
// completed rebuild, then clean reopen; the swapped image's watermark
// must keep replay from double-applying the absorbed deltas.
func TestMoverCompletedRebuildThenReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, o := moverTestDB(t, dir, 80)
	o.update(db, t, 3, 33)
	o.delete(db, t, 4)
	db.SetMoverThreshold(1)
	if err := db.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	if st := db.MoverStats(); st.Rebuilds != 1 {
		t.Fatalf("want exactly one rebuild, got %+v", st)
	}
	// Post-rebuild deltas stay WAL-only until the next move.
	o.insert(db, t, 2000, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.SetMoverInterval(0)
	o.verify(db2, t, "reopen after completed rebuild")
}

// TestMoverRebuildSurvivesInlineFold: commits that push the tail stack
// past its inline cap while a rebuild is in flight fold the tails into
// one layer and leave the big PDT alone, so the rebuild — pinned before
// them — still installs instead of being abandoned, and reopening
// replays to the same rows.
func TestMoverRebuildSurvivesInlineFold(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, o := moverTestDB(t, dir, 50)
	db.SetMoverThreshold(1)
	const commits = 20 // more than the inline cap of 16 tail layers
	fired := false
	db.SetMoverFailpoint(func(s string) error {
		if s != "swap:kv" || fired {
			return nil
		}
		fired = true
		for i := 0; i < commits; i++ {
			o.update(db, t, int64(i), -int64(i))
		}
		return nil
	})
	if err := db.MoveTuples(); err != nil {
		t.Fatal(err)
	}
	db.SetMoverFailpoint(nil)
	if !fired {
		t.Fatal("swap failpoint never fired")
	}
	st, err := db.txm.DeltaStats("kv")
	if err != nil {
		t.Fatal(err)
	}
	if st.TailLayers >= commits {
		t.Fatalf("%d tail layers after %d commits: the inline fold never ran", st.TailLayers, commits)
	}
	if ms := db.MoverStats(); ms.Rebuilds != 1 || ms.Retries != 0 {
		t.Fatalf("want the pinned rebuild installed, got %+v", ms)
	}
	o.verify(db, t, "after rebuild across an inline fold")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.SetMoverInterval(0)
	o.verify(db2, t, "reopen after rebuild across an inline fold")
}
