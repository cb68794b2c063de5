package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	vectorwise "vectorwise"
	"vectorwise/internal/vtypes"
)

const (
	dmlRows   = 200_000 // rows loaded at set-up
	dmlGroups = 16      // distinct grp values
	// dmlMoverThreshold lowers the tuple mover's rebuild threshold from
	// its default (16384 PDT entries) so that a run of this write rate
	// sees several stable-image rebuilds, not at most one.
	dmlMoverThreshold = 1024
	dmlUpdateWidth    = 10 // keys per ranged UPDATE
	dmlDeleteWidth    = 5  // keys per ranged DELETE
	dmlInsertRows     = 10 // fresh rows per INSERT
	dmlMaxWrites      = 50_000
	dmlMaxReads       = 200_000
)

const (
	sqlUpdate    = `UPDATE t SET bal = bal + $1 WHERE k BETWEEN $2 AND $3`
	sqlDelete    = `DELETE FROM t WHERE k BETWEEN $1 AND $2`
	sqlGroupRead = `SELECT grp, COUNT(*), SUM(bal) FROM t GROUP BY grp`
	sqlPointRead = `SELECT k, grp, bal FROM t WHERE k = $1`
)

// sqlInsert is the INSERT of dmlInsertRows parametrized rows.
var sqlInsert = func() string {
	s := "INSERT INTO t VALUES "
	for i := 0; i < dmlInsertRows; i++ {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("($%d, $%d, $%d)", 3*i+1, 3*i+2, 3*i+3)
	}
	return s
}()

// dmlOp is one generated write statement.
type dmlOp struct {
	kind   string // "update", "delete" or "insert"
	lo, hi int64  // key range of an update or delete
	delta  int64  // balance change of an update
	keys   []int64
	rows   []dmlRow // inserted rows, one per key
}

// genDMLWrites draws the writer's stream: 45% ranged UPDATEs, 20% ranged
// DELETEs, 35% INSERTs of fresh keys (above every key generated so far).
func genDMLWrites(rng *rand.Rand, dg *digest) []dmlOp {
	ops := make([]dmlOp, dmlMaxWrites)
	next := int64(dmlRows)
	for i := range ops {
		var op dmlOp
		switch x := rng.IntN(100); {
		case x < 45:
			op = dmlOp{kind: "update", lo: rng.Int64N(next), delta: 1 + rng.Int64N(100)}
			op.hi = op.lo + dmlUpdateWidth - 1
		case x < 65:
			op = dmlOp{kind: "delete", lo: rng.Int64N(next)}
			op.hi = op.lo + dmlDeleteWidth - 1
		default:
			op = dmlOp{kind: "insert"}
			for j := 0; j < dmlInsertRows; j++ {
				op.keys = append(op.keys, next)
				op.rows = append(op.rows, dmlRow{grp: rng.Int64N(dmlGroups), bal: rng.Int64N(1000)})
				next++
			}
		}
		dg.add(op.kind, op.lo, op.hi, op.delta)
		for j, k := range op.keys {
			dg.add(k, op.rows[j].grp, op.rows[j].bal)
		}
		ops[i] = op
	}
	return ops
}

// dmlRead is one generated reader statement: the GROUP BY scan, or a
// point read of key k.
type dmlRead struct {
	group bool
	k     int64
}

// genDMLReads alternates GROUP BY scans with point reads of keys that
// mostly exist.
func genDMLReads(rng *rand.Rand, dg *digest) []dmlRead {
	reads := make([]dmlRead, dmlMaxReads)
	for i := range reads {
		reads[i] = dmlRead{group: i%2 == 0, k: rng.Int64N(dmlRows + dmlRows/20)}
		dg.add(reads[i].k)
	}
	return reads
}

// genDMLTable generates the loaded table: keys 0..dmlRows-1 in order.
func genDMLTable(seed int64) ([]dmlRow, []any) {
	rng := newRNG(seed, 7)
	base := make([]dmlRow, dmlRows)
	ks, gs, bs := make([]int64, dmlRows), make([]int64, dmlRows), make([]int64, dmlRows)
	for i := range base {
		base[i] = dmlRow{grp: rng.Int64N(dmlGroups), bal: rng.Int64N(1000)}
		ks[i], gs[i], bs[i] = int64(i), base[i].grp, base[i].bal
	}
	return base, []any{ks, gs, bs}
}

// buildDML generates, creates and loads the table in a fresh on-disk
// database dmlSetupRepeats times, keeping the last.
func buildDML(seed int64, root string) (*vectorwise.DB, string, []dmlRow, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		dir := filepath.Join(root, fmt.Sprintf("db-%d", i))
		t0 := time.Now()
		base, cols := genDMLTable(seed)
		db, err := vectorwise.Open(dir)
		if err != nil {
			return nil, "", nil, 0, err
		}
		if _, err := db.Exec(`CREATE TABLE t (k BIGINT, grp BIGINT, bal BIGINT)`); err != nil {
			return nil, "", nil, 0, err
		}
		if _, err := db.LoadBatch("t", cols, nil); err != nil {
			return nil, "", nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == dmlSetupRepeats-1 {
			return db, dir, base, median(secs), nil
		}
		if err := db.Close(); err != nil {
			return nil, "", nil, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", nil, 0, err
		}
	}
}

// dmlWriter is the closed-loop writer. It alone mutates the model.
type dmlWriter struct {
	db    *vectorwise.DB
	model *dmlModel
	ops   []dmlOp
	next  int
	// acked is the last commit acknowledged to the writer; pending is the
	// commit in flight (acked+1 while a statement executes). A read that
	// starts after acked=a and ends before pending exceeds p may see any
	// commit in [a, p].
	acked, pending atomic.Int64
	wal            string
	walSize        int64
	walBytes       int64 // bytes appended to the WAL, summed over resets
}

// dmlWrite is one executed write statement.
type dmlWrite struct {
	kind    string
	latency time.Duration
	rows    int64
}

// step runs the next write statement and updates the model on success.
func (w *dmlWriter) step(tr *tracer, out *outcome) dmlWrite {
	op := w.ops[w.next%len(w.ops)]
	w.next++
	changes := map[int64]*dmlRow{}
	var text string
	var args []any
	switch op.kind {
	case "update":
		for k := op.lo; k <= op.hi; k++ {
			if r, ok := w.model.live[k]; ok {
				r.bal += op.delta
				changes[k] = &r
			}
		}
		text, args = sqlUpdate, []any{op.delta, op.lo, op.hi}
	case "delete":
		for k := op.lo; k <= op.hi; k++ {
			if _, ok := w.model.live[k]; ok {
				changes[k] = nil
			}
		}
		text, args = sqlDelete, []any{op.lo, op.hi}
	default:
		for j, k := range op.keys {
			r := op.rows[j]
			changes[k] = &r
			args = append(args, k, r.grp, r.bal)
		}
		text = sqlInsert
	}
	w.pending.Store(int64(w.model.commits() + 1))
	id := tr.begin("dml."+op.kind, -1, int64(w.next))
	t0 := time.Now()
	n, err := w.db.ExecArgs(text, args...)
	lat := time.Since(t0)
	tr.end(id)
	wrong := false
	if err == nil && n != int64(len(changes)) {
		err, wrong = fmt.Errorf("%s [%d, %d] affected %d rows, want %d", op.kind, op.lo, op.hi, n, len(changes)), true
	}
	if err != nil {
		changes = nil // a failed statement commits nothing
	}
	w.model.apply(changes)
	w.acked.Store(int64(w.model.commits()))
	out.ops.record(err, wrong)
	w.statWAL()
	return dmlWrite{kind: op.kind, latency: lat, rows: int64(len(changes))}
}

// statWAL adds the WAL's growth since the last call, measured from
// outside with stat. A checkpoint or mover rebuild resets the log; the
// size after a reset is all new bytes.
func (w *dmlWriter) statWAL() {
	fi, err := os.Stat(w.wal)
	if err != nil {
		return
	}
	size := fi.Size()
	if size >= w.walSize {
		w.walBytes += size - w.walSize
	} else {
		w.walBytes += size
	}
	w.walSize = size
}

// dmlReadResult is one reader statement with the commit window it ran in.
type dmlReadResult struct {
	op      dmlRead
	rows    []vtypes.Row
	lo, hi  int
	latency time.Duration
	timing  stmtTiming
	err     error
}

func runDML(cfg config, out *outcome) error {
	root := filepath.Join(cfg.workdir, fmt.Sprintf("dml-%d", os.Getpid()))
	defer os.RemoveAll(root)
	db, dir, base, setupS, err := buildDML(cfg.seed, root)
	if err != nil {
		return err
	}
	out.setupS = setupS
	db.SetMoverThreshold(dmlMoverThreshold)

	dg := newDigest()
	w := &dmlWriter{db: db, model: newDMLModel(base, dmlGroups), ops: genDMLWrites(newRNG(cfg.seed, 5), dg),
		wal: filepath.Join(dir, "vectorwise.wal")}
	reads := genDMLReads(newRNG(cfg.seed, 6), dg)
	fmt.Printf("# op stream digest %016x (%d writes, %d reads generated)\n", dg.sum(), len(w.ops), len(reads))
	w.statWAL()
	nextRead := 0
	var results []dmlReadResult

	// Warm-up: decompress the table into the buffer pool and fill the
	// plan cache for the reader's statements.
	w0 := time.Now()
	for i := 0; i < 4; i++ {
		rr := runDMLRead(db, dmlRead{group: i%2 == 0, k: int64(i)}, w, nil, 0)
		results = append(results, rr)
	}
	warmup := time.Since(w0).Seconds()
	fmt.Printf("# warmup_s %.4f\n", warmup)

	measure := func(d time.Duration, tr *tracer) phase {
		c0 := readCounters(db)
		m0 := readMem()
		wal0 := w.walBytes
		heap := startHeapSampler(5 * time.Millisecond)
		deadline := time.Now().Add(d)
		start := time.Now()
		var writes []dmlWrite
		var phaseReads []dmlReadResult
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				writes = append(writes, w.step(tr, out))
			}
		}()
		for time.Now().Before(deadline) {
			rr := runDMLRead(db, reads[nextRead%len(reads)], w, tr, int64(nextRead))
			if tr != nil && nextRead%8 == 0 {
				if err := replayFrontend(db, rr.sql(), rr.args(), tr, int64(nextRead)); err != nil {
					out.ops.record(fmt.Errorf("replay: %w", err), false)
				}
			}
			nextRead++
			phaseReads = append(phaseReads, rr)
		}
		wg.Wait()
		elapsed := time.Since(start)
		peak := heap.finish()
		mem := memSince(m0)
		results = append(results, phaseReads...)

		var all, readLat, open, drain []float64
		byKind := map[string][]float64{}
		var rows int64
		for _, x := range writes {
			all = append(all, ms(x.latency))
			byKind[x.kind] = append(byKind[x.kind], ms(x.latency))
			rows += x.rows
		}
		for _, r := range phaseReads {
			if r.err == nil {
				readLat = append(readLat, ms(r.latency))
				open = append(open, ms(r.timing.open))
				drain = append(drain, ms(r.timing.drain))
			}
		}
		p := phase{e2e: map[string]float64{
			"peak_heap_mb":     peak,
			"throughput_per_s": float64(rows) / elapsed.Seconds(),
			"p50_ms":           median(append([]float64(nil), all...)),
			"p99_ms":           quantile(append([]float64(nil), all...), 0.99),
			"read_p50_ms":      median(readLat),
		}, layers: map[string]float64{"warmup_s": warmup}}
		l := p.layers
		c0.addDeltas(readCounters(db), l)
		stmts := float64(len(writes) + len(phaseReads))
		l["exec.alloc_kb_per_op"] = mem.allocMB * 1024 / stmts
		l["gc.pause_us_per_op"] = mem.gcPauseMs * 1000 / stmts
		for _, k := range []string{"update", "delete", "insert"} {
			l["dml."+k+"_ms"] = median(byKind[k])
		}
		l["frontend.open_ms"] = median(open)
		l["exec.drain_ms"] = median(drain)
		if rows > 0 {
			l["wal.bytes_per_row"] = float64(w.walBytes-wal0) / float64(rows)
		}
		if disk, err := dirBytes(dir); err == nil {
			l["storage.disk_bytes_per_user_byte"] = float64(disk) / float64(24*len(w.model.live))
		}
		fmt.Printf("# phase: writes=%d rows=%d reads=%d write_p50_ms=%.3f write_p99_ms=%.3f read_p50_ms=%.3f\n",
			len(writes), rows, len(phaseReads), p.e2e["p50_ms"], p.e2e["p99_ms"], p.e2e["read_p50_ms"])
		if tr != nil {
			addSpanLayers(tr, l)
		}
		return p
	}
	if cfg.trace {
		out.untraced = measure(cfg.measure/2, nil)
		tp := measure(cfg.measure/2, out.tracer)
		tp.takeCounters(out.untraced)
		out.traced = &tp
	} else {
		out.untraced = measure(cfg.measure, nil)
	}

	// Every reader result must match the model at a commit in its window.
	for _, r := range results {
		err, wrong := r.err, false
		if err == nil {
			if r.op.group {
				err = w.model.checkGroupRead(r.rows, r.lo, r.hi)
			} else {
				err = w.model.checkPointRead(r.op.k, r.rows, r.lo, r.hi)
			}
			wrong = err != nil
		}
		out.ops.record(err, wrong)
	}

	// Durability: reopen the directory and compare the whole table.
	if err := db.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	db2, err := vectorwise.Open(dir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	reopen := ms(time.Since(t0))
	res, err := db2.Query(`SELECT k, grp, bal FROM t`)
	if err == nil {
		err = checkTable(w.model.live, res.Rows)
	}
	out.ops.record(err, err != nil)
	if cerr := db2.Close(); cerr != nil {
		return cerr
	}
	fmt.Printf("# durability: reopened in %.1f ms, %d rows checked\n", reopen, len(w.model.live))
	if out.traced != nil {
		out.traced.layers["recovery.reopen_ms"] = reopen
		stats, gaps := out.tracer.selfTimes()
		l := out.traced.layers
		printLayerReport(stats, gaps, []layerRow{
			{"frontend", []string{"db.open"}, fmt.Sprintf("plancache hits/lookups=%.0f/%.0f", l["plancache.hit_ratio"]*l["plancache.lookups"], l["plancache.lookups"]), "read_p50_ms"},
			{"execution", []string{"db.drain"}, fmt.Sprintf("alloc_kb_per_stmt=%.1f", l["exec.alloc_kb_per_op"]), "read_p50_ms, peak_heap_mb"},
			{"storage", nil, fmt.Sprintf("groups scanned/pruned=%.0f/%.0f chunk fetches/loads=%.0f/%.0f decoded_mb=%.1f disk_bytes_per_user_byte=%.2f", l["storage.groups_scanned"], l["storage.groups_pruned"], l["bufmgr.chunk_fetches"], l["bufmgr.chunk_loads"], l["bufmgr.decoded_mb"], l["storage.disk_bytes_per_user_byte"]), "read_p50_ms (reloads after rebuilds)"},
			{"writes", []string{"dml.update", "dml.delete", "dml.insert"}, fmt.Sprintf("wal_bytes_per_row=%.1f mover passes/folds/rebuilds/retries=%.0f/%.0f/%.0f/%.0f reopen_ms=%.1f", l["wal.bytes_per_row"], l["mover.passes"], l["mover.folds"], l["mover.rebuilds"], l["mover.retries"], reopen), "throughput_per_s, p50_ms, p99_ms (write_rows_per_s, write_p50_ms, write_p99_ms)"},
			{"client", []string{"read", "db.box"}, "reader loop and boxing", "none"},
		})
	}
	return nil
}

func (r dmlReadResult) sql() string {
	if r.op.group {
		return sqlGroupRead
	}
	return sqlPointRead
}

func (r dmlReadResult) args() []any {
	if r.op.group {
		return nil
	}
	return []any{r.op.k}
}

// runDMLRead runs one reader statement and records its commit window.
func runDMLRead(db *vectorwise.DB, op dmlRead, w *dmlWriter, tr *tracer, req int64) dmlReadResult {
	r := dmlReadResult{op: op, lo: int(w.acked.Load())}
	span := tr.begin("read", -1, req)
	t0 := time.Now()
	r.timing, r.err = runSelect(db, r.sql(), r.args(), boxInto(&r.rows), "db.box", tr, span, req)
	r.latency = time.Since(t0)
	tr.end(span)
	r.hi = int(w.pending.Load())
	return r
}

// checkTable compares a full scan with the model's live rows.
func checkTable(live map[int64]dmlRow, rows []vtypes.Row) error {
	if len(rows) != len(live) {
		return fmt.Errorf("after reopen: %d rows, want %d", len(rows), len(live))
	}
	seen := make(map[int64]bool, len(rows))
	for _, r := range rows {
		want, ok := live[r[0].I64]
		if !ok || seen[r[0].I64] || r[1].I64 != want.grp || r[2].I64 != want.bal {
			return fmt.Errorf("after reopen: row %v does not match the model", r)
		}
		seen[r[0].I64] = true
	}
	return nil
}

// dirBytes sums the sizes of the files under dir. The tuple mover may
// replace a table file while the walk runs; a file gone by the time it
// is visited counts as empty.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			var fi fs.FileInfo
			if fi, err = d.Info(); err == nil {
				n += fi.Size()
			}
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	})
	return n, err
}
