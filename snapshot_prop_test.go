package vectorwise

// Property test of the snapshot machinery: random interleavings of
// INSERT / UPDATE / DELETE / Checkpoint / MoveTuples are mirrored into
// a plain-Go oracle map, and snapshot cursors pinned at random points
// along the way — each paired with a copy of the oracle at its pin
// instant — are drained at later random points (after arbitrarily many
// commits, folds, stable swaps and checkpoints) and must replay
// exactly the oracle state of their pin epoch. Fixed seeds keep runs
// reproducible; odd seeds run disk-backed to put the WAL and the
// persisted-image watermark in the loop.
//
// The DML covers what the vectorized write path must get right: point,
// ranged (pushed, pruning) and non-sargable (k - (k/10)*10, k % m)
// WHERE clauses, predicates and SET expressions over a nullable column,
// SET expressions reading other columns, and statements that run after
// mover passes and over several committed tail layers (the mover only
// runs when a step asks). Every statement's affected-row count is
// checked against the oracle too.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// propRow is one oracle row: v, and the nullable n.
type propRow struct {
	v     int64
	n     int64
	nNull bool
}

func (r propRow) String() string {
	if r.nNull {
		return fmt.Sprintf("(%d, NULL)", r.v)
	}
	return fmt.Sprintf("(%d, %d)", r.v, r.n)
}

type propCursor struct {
	rows   *Rows
	expect map[int64]propRow // oracle at pin time
	step   int               // pin step, for failure messages
}

// drainAndCheck consumes a pinned cursor and compares it to the oracle
// copy captured when it was pinned.
func (pc *propCursor) drainAndCheck(t *testing.T, now int) {
	t.Helper()
	got := make(map[int64]propRow)
	var n int
	for {
		b, err := pc.rows.NextBatch()
		if err != nil {
			t.Fatalf("cursor pinned at step %d, drained at %d: %v", pc.step, now, err)
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			ix := b.LiveIndex(i)
			nv := b.Vecs[2].Get(ix)
			got[b.Vecs[0].I64[ix]] = propRow{v: b.Vecs[1].I64[ix], n: nv.I64, nNull: nv.Null}
			n++
		}
	}
	if n != len(pc.expect) {
		t.Fatalf("cursor pinned at step %d, drained at %d: %d rows, oracle had %d",
			pc.step, now, n, len(pc.expect))
	}
	for k, v := range pc.expect {
		gv, ok := got[k]
		if !ok || gv != v {
			t.Fatalf("cursor pinned at step %d, drained at %d: key %d = %v (present %v), oracle %v",
				pc.step, now, k, gv, ok, v)
		}
	}
}

func TestSnapshotPropertyRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSnapshotProperty(t, seed)
		})
	}
}

func runSnapshotProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var db *DB
	if seed%2 == 1 {
		var err error
		if db, err = Open(filepath.Join(t.TempDir(), "db")); err != nil {
			t.Fatal(err)
		}
		db.SetMoverInterval(0)
	} else {
		db = OpenMemory()
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k BIGINT, v BIGINT, n BIGINT NULL)`); err != nil {
		t.Fatal(err)
	}
	// Tiny threshold so MoveTuples steps actually rebuild the stable
	// image, not just fold.
	db.SetMoverThreshold(4)

	oracle := make(map[int64]propRow)
	copyOracle := func() map[int64]propRow {
		c := make(map[int64]propRow, len(oracle))
		for k, v := range oracle {
			c[k] = v
		}
		return c
	}
	var pinned []*propCursor
	nextKey := int64(0)
	randKey := func() int64 {
		if nextKey == 0 {
			return 0
		}
		return rng.Int63n(nextKey)
	}

	// exec runs one DML statement and checks its affected-row count.
	exec := func(step int, want int, q string) {
		t.Helper()
		got, err := db.Exec(q)
		if err != nil {
			t.Fatalf("step %d %s: %v", step, q, err)
		}
		if got != int64(want) {
			t.Fatalf("step %d %s: %d rows affected, oracle %d", step, q, got, want)
		}
	}
	// update applies f to every oracle row matching where and runs q.
	update := func(step int, q string, where func(k int64, r propRow) bool, f func(k int64, r propRow) propRow) {
		t.Helper()
		n := 0
		for k, r := range oracle {
			if where(k, r) {
				oracle[k] = f(k, r)
				n++
			}
		}
		exec(step, n, q)
	}
	// remove deletes every oracle row matching where and runs q.
	remove := func(step int, q string, where func(k int64, r propRow) bool) {
		t.Helper()
		n := 0
		for k, r := range oracle {
			if where(k, r) {
				delete(oracle, k)
				n++
			}
		}
		exec(step, n, q)
	}

	const steps = 500
	for step := 0; step < steps; step++ {
		switch p := rng.Intn(100); {
		case p < 30: // insert a fresh key; n is NULL a third of the time
			k, r := nextKey, propRow{v: rng.Int63n(1000), n: rng.Int63n(1000)}
			nextKey++
			n := fmt.Sprint(r.n)
			if rng.Intn(3) == 0 {
				r.n, r.nNull, n = 0, true, "NULL"
			}
			exec(step, 1, fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d, %s)`, k, r.v, n))
			oracle[k] = r
		case p < 40: // point update of a (possibly absent) key
			k, v := randKey(), rng.Int63n(1000)
			update(step, fmt.Sprintf(`UPDATE kv SET v = %d WHERE k = %d`, v, k),
				func(kk int64, _ propRow) bool { return kk == k },
				func(_ int64, r propRow) propRow { r.v = v; return r })
		case p < 45: // ranged update, pushed into the scan
			lo, d := randKey(), 1+rng.Int63n(9)
			hi := lo + rng.Int63n(20)
			update(step, fmt.Sprintf(`UPDATE kv SET v = v + %d WHERE k BETWEEN %d AND %d`, d, lo, hi),
				func(k int64, _ propRow) bool { return k >= lo && k <= hi },
				func(_ int64, r propRow) propRow { r.v += d; return r })
		case p < 50: // non-sargable WHERE; SET reads other columns
			d := rng.Int63n(10)
			update(step, fmt.Sprintf(`UPDATE kv SET n = v * 2, v = k + v WHERE k - (k/10)*10 = %d`, d),
				func(k int64, _ propRow) bool { return k%10 == d },
				func(k int64, r propRow) propRow { return propRow{v: k + r.v, n: r.v * 2} })
		case p < 54: // predicate and SET over the nullable column
			c := rng.Int63n(1000)
			if rng.Intn(2) == 0 {
				update(step, fmt.Sprintf(`UPDATE kv SET n = NULL WHERE n > %d`, c),
					func(_ int64, r propRow) bool { return !r.nNull && r.n > c },
					func(_ int64, r propRow) propRow { r.n, r.nNull = 0, true; return r })
			} else {
				update(step, fmt.Sprintf(`UPDATE kv SET v = v + n %% 10 WHERE n <> %d`, c),
					func(_ int64, r propRow) bool { return !r.nNull && r.n != c },
					func(_ int64, r propRow) propRow { r.v += r.n % 10; return r })
			}
		case p < 60: // point delete of a (possibly absent) key
			k := randKey()
			remove(step, fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, k),
				func(kk int64, _ propRow) bool { return kk == k })
		case p < 64: // ranged and non-sargable deletes
			if rng.Intn(2) == 0 {
				lo := randKey()
				hi := lo + rng.Int63n(8)
				remove(step, fmt.Sprintf(`DELETE FROM kv WHERE k BETWEEN %d AND %d`, lo, hi),
					func(k int64, _ propRow) bool { return k >= lo && k <= hi })
			} else {
				m := 20 + rng.Int63n(20)
				d := rng.Int63n(m)
				remove(step, fmt.Sprintf(`DELETE FROM kv WHERE k %% %d = %d`, m, d),
					func(k int64, _ propRow) bool { return k%m == d })
			}
		case p < 70: // delete over the nullable column (NULL never matches)
			c := rng.Int63n(1000)
			remove(step, fmt.Sprintf(`DELETE FROM kv WHERE n < %d`, c/4),
				func(_ int64, r propRow) bool { return !r.nNull && r.n < c/4 })
		case p < 75: // checkpoint: full flatten + WAL truncate when clean
			if err := db.Checkpoint("kv"); err != nil {
				t.Fatalf("step %d checkpoint: %v", step, err)
			}
		case p < 85: // mover pass: fold + (tiny threshold) stable rebuild
			if err := db.MoveTuples(); err != nil {
				t.Fatalf("step %d move: %v", step, err)
			}
		case p < 95: // pin a snapshot cursor, drain later
			rows, err := db.QueryContext(nil, `SELECT k, v, n FROM kv`)
			if err != nil {
				t.Fatalf("step %d pin: %v", step, err)
			}
			pinned = append(pinned, &propCursor{rows: rows, expect: copyOracle(), step: step})
		default: // drain a random pinned cursor now
			if len(pinned) == 0 {
				continue
			}
			i := rng.Intn(len(pinned))
			pc := pinned[i]
			pinned = append(pinned[:i], pinned[i+1:]...)
			pc.drainAndCheck(t, step)
		}
	}
	// Drain every straggler — some of these snapshots predate dozens
	// of reorganizations.
	for _, pc := range pinned {
		pc.drainAndCheck(t, steps)
	}
	// Final state matches the oracle through a fresh snapshot.
	final := &propCursor{expect: copyOracle(), step: steps}
	rows, err := db.QueryContext(nil, `SELECT k, v, n FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	final.rows = rows
	final.drainAndCheck(t, steps)
	if st := db.MoverStats(); st.Folds == 0 && st.Rebuilds == 0 {
		t.Logf("note: mover never reorganized this run: %+v", st)
	}
}
