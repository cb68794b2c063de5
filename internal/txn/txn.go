// Package txn implements Vectorwise's transaction model: snapshot reads
// over layered PDTs, optimistic PDT-based concurrency control, and a
// write-ahead log that records PDTs as they commit (paper §I-B).
//
// Each table's committed state is a stack of immutable layers:
//
//	stable image  →  big PDT  →  tail small PDTs (oldest first)
//
// The stable image is the columnar file, the big PDT is the
// mover-maintained base delta layer, and each commit installs its
// rebased small PDT as a new tail layer. Every layer is immutable once
// published, so a reader pins a consistent snapshot by capturing the
// (stable, big, tails) tuple — commits after the pin only append layers
// on top and never disturb the pinned objects. A transaction's writes
// accumulate in a private small PDT over its snapshot's top image.
//
// Commit, under a short critical section:
//
//  1. validates optimistically — the small PDT's write set, translated
//     down the snapshot stack to stable SIDs, must not intersect the
//     write set of any transaction committed after the snapshot
//     (first-committer-wins);
//  2. rebases the small PDT up through tail layers appended since the
//     snapshot (valid because validation ruled out overlapping
//     positions);
//  3. logs the rebased PDT and a commit marker to the WAL;
//  4. publishes the rebased PDT as the new top tail layer. Publishing is
//     O(own writes) — the big PDT is NOT propagated on the commit path;
//     folding tail layers into it is the background tuple mover's job
//     (InstallFold / InstallStable / Checkpoint).
//
// Layer reorganizations (mover folds, inline tail folds, stable-image
// swaps, checkpoints, re-registration) bump the table's base
// generation; a transaction whose snapshot predates a reorganization
// cannot commit and gets ErrStaleSnapshot. The vectorwise.DB layer
// serializes writers against reorganizations with its write lock, so
// the error never surfaces through the SQL API; raw Manager users
// retry.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/wal"
)

// ErrConflict is returned by Commit when optimistic validation fails.
var ErrConflict = errors.New("txn: write-write conflict, transaction aborted")

// ErrClosed is returned when using a finished transaction.
var ErrClosed = errors.New("txn: transaction already committed or aborted")

// ErrStaleSnapshot is returned by Commit when the table's layer stack
// was reorganized (mover fold, stable swap, checkpoint) after the
// transaction pinned its snapshot. The transaction is aborted; the
// caller may retry on a fresh snapshot.
var ErrStaleSnapshot = errors.New("txn: snapshot predates a layer reorganization, transaction aborted")

// maxTailLayers bounds the tail stack between mover runs: a commit that
// would grow the stack past this folds the tails into one tail layer
// inline (an O(tails) backstop keeping the stack short even with the
// mover disabled). The big PDT is left alone, so a stable-image rebuild
// the mover pinned before the fold still installs.
const maxTailLayers = 16

// commitInfo records a committed transaction's write set for validation.
type commitInfo struct {
	version uint64
	touched map[int64]struct{}
}

// tableState is the committed state of one table. All layer fields are
// immutable once published — mutations replace fields under Manager.mu,
// they never modify a published *pdt.PDT or *storage.Table in place.
type tableState struct {
	stable *storage.Table
	// big is the mover-maintained base delta layer over stable (empty,
	// never nil, when fully folded).
	big *pdt.PDT
	// tail holds committed small-PDT layers above big, oldest first.
	// Layer i applies to the output image of everything below it.
	tail []*pdt.PDT
	// bigLSN is the highest WAL LSN folded into stable or big; tailLSN
	// parallels tail with each layer's data-record LSN (0 without WAL).
	bigLSN  uint64
	tailLSN []uint64
	// version bumps on every publish; base bumps only on layer
	// reorganizations and fences stale-snapshot commits.
	version uint64
	base    uint64
	commits []commitInfo
	// pin is the Pinned of the current version, shared by every pinner
	// (cursors, transactions, the mover) so its merged layer is folded
	// at most once per version; pinLocked replaces it once stale.
	pin *Pinned
}

// topRows returns the visible row count of the table's top image.
func (ts *tableState) topRows() int64 {
	if n := len(ts.tail); n > 0 {
		return ts.tail[n-1].VisibleRows()
	}
	return ts.big.VisibleRows()
}

// Manager owns committed state and the WAL. All Manager methods are
// safe for concurrent use; committed layers are immutable once
// published, so a snapshot pinned by one transaction or cursor is never
// mutated by another's commit.
type Manager struct {
	mu      sync.Mutex
	tables  map[string]*tableState
	log     *wal.Log
	nextTxn uint64
}

// NewManager creates a transaction manager. log may be nil (no
// durability — used by benchmarks isolating CPU costs).
func NewManager(log *wal.Log) *Manager {
	return &Manager{tables: make(map[string]*tableState), log: log, nextTxn: 1}
}

// Register installs t as the complete committed state of its table:
// empty big PDT, no tails. Re-registering an existing name asserts the
// new image supersedes everything previously committed (the bulk-load
// path does this after folding deltas into the rebuilt file), so the
// applied-LSN watermark carries forward and the base generation bumps.
func (m *Manager) Register(t *storage.Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ns := &tableState{
		stable: t,
		big:    pdt.New(t.Schema(), t.Rows()),
		bigLSN: t.Meta.AppliedLSN,
	}
	if old := m.tables[t.Meta.Name]; old != nil {
		ns.version = old.version + 1
		ns.base = old.base + 1
		if old.bigLSN > ns.bigLSN {
			ns.bigLSN = old.bigLSN
		}
		for _, lsn := range old.tailLSN {
			if lsn > ns.bigLSN {
				ns.bigLSN = lsn
			}
		}
	}
	m.tables[t.Meta.Name] = ns
}

// Recover replays committed WAL records (from wal.Open) onto the
// registered tables, folding each into the big PDT. Records whose LSN
// is at or below the stable image's applied-LSN watermark are already
// materialized in the file and are skipped — this is what makes the
// tuple mover's stable swap crash-safe without atomic WAL truncation.
// Must run after all tables are registered and before any transaction
// starts.
func (m *Manager) Recover(recs []wal.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range wal.CommittedTxns(recs) {
		ts := m.tables[r.Table]
		if ts == nil {
			return fmt.Errorf("txn: WAL references unknown table %q", r.Table)
		}
		if r.LSN <= ts.stable.Meta.AppliedLSN {
			continue
		}
		small, err := pdt.Decode(ts.stable.Schema(), r.Data)
		if err != nil {
			return fmt.Errorf("txn: WAL record LSN %d: %w", r.LSN, err)
		}
		combined, err := pdt.Propagate(ts.big, small)
		if err != nil {
			return fmt.Errorf("txn: WAL replay LSN %d: %w", r.LSN, err)
		}
		ts.big = combined
		ts.bigLSN = r.LSN
		ts.version++
	}
	return nil
}

// anchorStable translates a position in the pin's top image down
// through the layer stack to its stable-image anchor SID — the
// coordinate system shared by all transactions, in which conflicts are
// defined. Both write targets (Del/Mod) and insertion points anchor the
// same way: each layer's InsertionPoint decomposition yields the SID the
// position belongs to in the layer's input image.
func anchorStable(s *Pinned, pos int64) (int64, error) {
	for i := len(s.Tail) - 1; i >= 0; i-- {
		sid, _, err := s.Tail[i].InsertionPoint(pos)
		if err != nil {
			return 0, err
		}
		pos = sid
	}
	sid, _, err := s.Big.InsertionPoint(pos)
	if err != nil {
		return 0, err
	}
	return sid, nil
}

// Txn is an in-flight transaction. A Txn is owned by one goroutine at a
// time — its private write PDT and snapshot map are unsynchronized;
// only the Manager state it touches through snap/Commit is locked.
type Txn struct {
	m      *Manager
	id     uint64
	snaps  map[string]*Pinned
	writes map[string]*pdt.PDT
	done   bool
}

// Begin starts a transaction with a snapshot taken lazily per table.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{m: m, id: m.nextTxn, snaps: make(map[string]*Pinned), writes: make(map[string]*pdt.PDT)}
	m.nextTxn++
	return t
}

// snap pins the table's current committed version on first touch.
func (t *Txn) snap(table string) (*Pinned, error) {
	if s, ok := t.snaps[table]; ok {
		return s, nil
	}
	s, err := t.m.Pin(table)
	if err != nil {
		return nil, err
	}
	t.snaps[table] = s
	return s, nil
}

// small returns the transaction's write PDT for the table.
func (t *Txn) small(table string) (*pdt.PDT, *Pinned, error) {
	s, err := t.snap(table)
	if err != nil {
		return nil, nil, err
	}
	w, ok := t.writes[table]
	if !ok {
		w = pdt.New(s.Stable.Schema(), s.Rows())
		t.writes[table] = w
	}
	return w, s, nil
}

// Resolve returns the stable image and the merged delta layer (at most
// one PDT) of the transaction's snapshot of the table — the view a
// statement's scan reads. It never includes the transaction's own
// writes, so a statement that scans and writes one table sees each row
// as of its snapshot exactly once, however many rows it has already
// changed. *Txn implements xcompile.Resolver with it.
func (t *Txn) Resolve(table string) (*storage.Table, []*pdt.PDT, error) {
	if t.done {
		return nil, nil, ErrClosed
	}
	s, err := t.snap(table)
	if err != nil {
		return nil, nil, err
	}
	return s.Resolve()
}

// Rows returns the table's visible row count in this transaction.
func (t *Txn) Rows(table string) (int64, error) {
	if t.done {
		return 0, ErrClosed
	}
	w, _, err := t.small(table)
	if err != nil {
		return 0, err
	}
	return w.VisibleRows(), nil
}

// Insert appends a row to the table (visible to this transaction).
func (t *Txn) Insert(table string, row vtypes.Row) error {
	if t.done {
		return ErrClosed
	}
	w, _, err := t.small(table)
	if err != nil {
		return err
	}
	return w.Append(row)
}

// InsertAt inserts a row at a specific visible position.
func (t *Txn) InsertAt(table string, rid int64, row vtypes.Row) error {
	if t.done {
		return ErrClosed
	}
	w, _, err := t.small(table)
	if err != nil {
		return err
	}
	return w.Insert(rid, row)
}

// Delete removes the visible row at rid.
func (t *Txn) Delete(table string, rid int64) error {
	if t.done {
		return ErrClosed
	}
	w, _, err := t.small(table)
	if err != nil {
		return err
	}
	return w.Delete(rid)
}

// Update overwrites one column of the visible row at rid.
func (t *Txn) Update(table string, rid int64, col int, val vtypes.Value) error {
	if t.done {
		return ErrClosed
	}
	w, _, err := t.small(table)
	if err != nil {
		return err
	}
	return w.Modify(rid, col, val)
}
