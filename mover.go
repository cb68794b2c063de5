package vectorwise

// The background tuple mover: the write side's counterpart to epoch
// snapshots. Commits are cheap — each installs its rebased small PDT as
// a new tail layer in O(own writes) — so somebody else must keep the
// layer stack short and the deltas small. The mover is that somebody,
// in the mold of Vertica's WOS→ROS tuple mover (C-Store 7 Years Later):
//
//  1. Fold: propagate the committed tail layers into the big PDT
//     (pdt.Propagate), off-line on a pinned state; install the result
//     under a short write-lock window. Scans drop from an N-layer merge
//     chain back to stable+big.
//  2. Rebuild: once the big PDT crosses a size threshold, merge it into
//     a fresh stable image off-line, persist the image (crash-atomic
//     rename) stamped with its applied-LSN watermark, and swap it in
//     under the same short write-lock window. WAL records the image
//     absorbed become inert at recovery (LSN <= watermark), so no WAL
//     truncation needs to be atomic with the swap.
//
// Both installs verify the pinned base generation and abandon on a
// concurrent reorganization (counted as a retry; the next tick starts
// over). Readers never wait: off-line work happens on immutable pinned
// state, and the write-lock window is a few pointer swaps.

import (
	"fmt"
	"path/filepath"
	"time"

	"vectorwise/internal/storage"
	"vectorwise/internal/txn"
)

// DefaultMoverInterval is the tick of the background mover started by
// [Open]. [OpenMemory] starts with the mover stopped; enable it with
// [DB.SetMoverInterval].
const DefaultMoverInterval = time.Second

// DefaultMoverThreshold is the big-PDT entry count past which a mover
// pass rebuilds the stable image.
const DefaultMoverThreshold = 1 << 14

// MoverStats counts tuple-mover outcomes (see [DB.MoverStats]).
type MoverStats struct {
	// Passes counts completed MoveTuples passes (manual and ticked).
	Passes uint64 `json:"passes"`
	// Folds counts tail stacks folded into big PDTs.
	Folds uint64 `json:"folds"`
	// Rebuilds counts stable images rebuilt and swapped in.
	Rebuilds uint64 `json:"rebuilds"`
	// Retries counts installs abandoned because the table reorganized
	// between the off-line work and the install window.
	Retries uint64 `json:"retries"`
}

// MoverStats returns cumulative tuple-mover counters.
func (db *DB) MoverStats() MoverStats {
	db.moverMu.Lock()
	defer db.moverMu.Unlock()
	return db.moverStats
}

// SetMoverThreshold sets the big-PDT entry count that triggers a
// stable-image rebuild on the next mover pass; n <= 0 disables
// rebuilds (folds still run). Safe to call concurrently.
func (db *DB) SetMoverThreshold(n int) {
	db.moverMu.Lock()
	db.moverThreshold = n
	db.moverMu.Unlock()
}

// SetMoverFailpoint installs a test-only fault hook invoked at named
// stages of a mover pass ("fold:<table>", "persist:<table>",
// "swap:<table>"); a non-nil return aborts the pass at that point.
// Crash-safety tests use it to stop the mover between persisting a
// rebuilt image and swapping it in, then recover from the WAL. Pass nil
// to clear.
func (db *DB) SetMoverFailpoint(f func(stage string) error) {
	db.moverMu.Lock()
	db.moverFail = f
	db.moverMu.Unlock()
}

func (db *DB) failpoint(stage string) error {
	db.moverMu.Lock()
	f := db.moverFail
	db.moverMu.Unlock()
	if f == nil {
		return nil
	}
	return f(stage)
}

func (db *DB) moverBump(f func(*MoverStats)) {
	db.moverMu.Lock()
	f(&db.moverStats)
	db.moverMu.Unlock()
}

// SetMoverInterval restarts the background tuple mover with the given
// tick; d <= 0 stops it. It must not be called with db.mu held (it
// joins the mover goroutine, which takes db.mu briefly each pass).
// Safe to call concurrently with queries and DML.
func (db *DB) SetMoverInterval(d time.Duration) {
	db.moverMu.Lock()
	stop, done := db.moverStop, db.moverDone
	db.moverStop, db.moverDone = nil, nil
	db.moverMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if d <= 0 {
		return
	}
	stop, done = make(chan struct{}), make(chan struct{})
	db.moverMu.Lock()
	db.moverStop, db.moverDone = stop, done
	db.moverMu.Unlock()
	go db.moverLoop(d, stop, done)
}

// stopMover halts the background mover if running (Close path).
func (db *DB) stopMover() { db.SetMoverInterval(0) }

func (db *DB) moverLoop(d time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// A failing pass (I/O error, failpoint) leaves deltas in
			// place for the next tick; nothing is lost.
			_ = db.MoveTuples()
		}
	}
}

// MoveTuples runs one synchronous tuple-mover pass over every table:
// fold committed tail layers into the big PDT, then rebuild and swap
// the stable image where the big PDT has outgrown the threshold. The
// heavy work runs on pinned immutable state without any DB lock;
// installs take the write lock for a few pointer swaps. Tests drive the
// mover deterministically through this instead of the background tick.
func (db *DB) MoveTuples() error {
	for _, name := range db.cat.Names() {
		if err := db.moveTable(name); err != nil {
			return fmt.Errorf("vectorwise: move %s: %w", name, err)
		}
	}
	db.moverBump(func(s *MoverStats) { s.Passes++ })
	return nil
}

func (db *DB) moveTable(name string) error {
	// Phase 1: fold tail layers into the big PDT.
	pin, err := db.txm.Pin(name)
	if err != nil {
		return err
	}
	if len(pin.Tail) > 0 {
		if err := db.failpoint("fold:" + name); err != nil {
			return err
		}
		folded, err := pin.Merged()
		if err != nil {
			return err
		}
		db.mu.Lock()
		ok := db.txm.InstallFold(name, pin, folded)
		if ok {
			err = db.refreshLayers(name)
		}
		db.mu.Unlock()
		if err != nil {
			return err
		}
		if !ok {
			db.moverBump(func(s *MoverStats) { s.Retries++ })
			return nil // reorganized underneath us; next tick retries
		}
		db.moverBump(func(s *MoverStats) { s.Folds++ })
	}

	// Phase 2: rebuild the stable image when the big PDT is large.
	pin, err = db.txm.Pin(name)
	if err != nil {
		return err
	}
	db.moverMu.Lock()
	threshold := db.moverThreshold
	db.moverMu.Unlock()
	if threshold <= 0 || pin.Big.Len() < threshold {
		return nil
	}
	newStable, err := rebuildStable(pin)
	if err != nil {
		return err
	}
	// Stamp and persist the image before the swap. Crash anywhere in
	// here is safe: the WAL still holds every record, and the image's
	// watermark makes exactly the absorbed ones inert at recovery —
	// whether the on-disk file is still the old image (atomic rename
	// not done) or already the new one.
	newStable.Meta.AppliedLSN = pin.AppliedLSN()
	if err := db.failpoint("persist:" + name); err != nil {
		return err
	}
	if db.dir != "" {
		if err := newStable.Save(filepath.Join(db.dir, name+".vwt")); err != nil {
			return err
		}
	}
	if err := db.failpoint("swap:" + name); err != nil {
		return err
	}
	db.mu.Lock()
	ok := db.txm.InstallStable(name, pin, newStable)
	if ok {
		if err = db.cat.ReplaceTable(newStable); err == nil {
			err = db.refreshLayers(name)
		}
	}
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if !ok {
		db.moverBump(func(s *MoverStats) { s.Retries++ })
		return nil
	}
	db.moverBump(func(s *MoverStats) { s.Rebuilds++ })
	return nil
}

// rebuildStable merges a pin's big PDT into a fresh columnar image.
// Pure off-line work on immutable inputs.
func rebuildStable(pin *txn.Pinned) (*storage.Table, error) {
	schema := pin.Stable.Schema()
	nb := storage.NewBuilder(pin.Stable.Meta.Name, schema, 0)
	if err := txn.MergeIntoBuilder(nb, pin.Stable, pin.Big); err != nil {
		return nil, err
	}
	return nb.Finish()
}
