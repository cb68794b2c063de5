package txn

import (
	"fmt"
	"sync"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
	"vectorwise/internal/wal"
)

// touchedStable translates a small PDT's write positions (RIDs over the
// snapshot's top image) down the layer stack into stable SIDs — the
// coordinate system shared by all transactions, in which conflicts are
// defined.
func touchedStable(small *pdt.PDT, s *Pinned) (map[int64]struct{}, error) {
	out := make(map[int64]struct{})
	for _, e := range small.Entries() {
		sid, err := anchorStable(s, e.SID)
		if err != nil {
			return nil, err
		}
		out[sid] = struct{}{}
	}
	return out, nil
}

// rebase re-expresses the small PDT over the table's current top image
// by remapping each write position up through the tail layers appended
// after the snapshot. Validation has already guaranteed that none of
// those layers touched the same stable anchors, so each target still
// exists and the per-layer maps are unambiguous: an insertion point
// maps with StartRID (land before any survivor at that point), a
// Del/Mod target with RIDOfStable (follow the row itself). Entries
// replay in reverse sequence order for the same reason Propagate does:
// applying a change never disturbs positions before it.
func rebase(small *pdt.PDT, newer []*pdt.PDT, topRows int64) (*pdt.PDT, error) {
	out := pdt.New(small.Schema(), topRows)
	ents := small.Entries()
	for i := len(ents) - 1; i >= 0; i-- {
		e := ents[i]
		rid := e.SID
		switch e.Type {
		case pdt.Ins:
			for _, layer := range newer {
				rid = layer.StartRID(rid)
			}
			if err := out.Insert(rid, e.Row); err != nil {
				return nil, err
			}
		case pdt.Del, pdt.Mod:
			for _, layer := range newer {
				rid = layer.RIDOfStable(rid)
			}
			if e.Type == pdt.Del {
				if err := out.Delete(rid); err != nil {
					return nil, err
				}
			} else {
				for _, mc := range e.Mods {
					if err := out.Modify(rid, mc.Col, mc.Val); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return out, nil
}

// Commit validates, logs and publishes the transaction's writes as new
// tail layers. On conflict it returns ErrConflict; if any written
// table's layer stack was reorganized since the snapshot it returns
// ErrStaleSnapshot. Either way the transaction is aborted.
func (t *Txn) Commit() error {
	if t.done {
		return ErrClosed
	}
	t.done = true
	if len(t.writes) == 0 {
		return nil
	}
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()

	// Phase 1: validate every written table.
	type pending struct {
		name    string
		ts      *tableState
		rebased *pdt.PDT
		touched map[int64]struct{}
		lsn     uint64
	}
	var plan []pending
	for name, small := range t.writes {
		if small.Empty() {
			continue
		}
		s := t.snaps[name]
		ts := m.tables[name]
		if ts == nil {
			return fmt.Errorf("txn: unknown table %q", name)
		}
		if ts.base != s.base {
			return ErrStaleSnapshot
		}
		touched, err := touchedStable(small, s)
		if err != nil {
			return fmt.Errorf("txn: commit validation: %w", err)
		}
		for _, ci := range ts.commits {
			if ci.version <= s.Version {
				continue
			}
			for sid := range touched {
				if _, clash := ci.touched[sid]; clash {
					return ErrConflict
				}
			}
		}
		rb := small
		if newer := ts.tail[len(s.Tail):]; len(newer) > 0 {
			if rb, err = rebase(small, newer, ts.topRows()); err != nil {
				return fmt.Errorf("txn: rebase: %w", err)
			}
		}
		plan = append(plan, pending{name: name, ts: ts, rebased: rb, touched: touched})
	}
	if len(plan) == 0 {
		return nil
	}

	// Phase 2: WAL (data records + commit marker, then sync).
	if m.log != nil {
		for i := range plan {
			lsn, err := m.log.Append(t.id, wal.KindData, plan[i].name, pdt.Encode(plan[i].rebased))
			if err != nil {
				return fmt.Errorf("txn: wal append: %w", err)
			}
			plan[i].lsn = lsn
		}
		if _, err := m.log.Append(t.id, wal.KindCommit, "", nil); err != nil {
			return fmt.Errorf("txn: wal commit marker: %w", err)
		}
		if err := m.log.Sync(); err != nil {
			return fmt.Errorf("txn: wal sync: %w", err)
		}
	}

	// Phase 3: publish each rebased PDT as a new tail layer. The slices
	// are copied so snapshots pinned by readers keep their exact stack.
	for _, p := range plan {
		ts := p.ts
		ts.tail = append(append([]*pdt.PDT(nil), ts.tail...), p.rebased)
		ts.tailLSN = append(append([]uint64(nil), ts.tailLSN...), p.lsn)
		ts.version++
		ts.commits = append(ts.commits, commitInfo{version: ts.version, touched: p.touched})
		if len(ts.tail) > maxTailLayers {
			if err := foldTailsLocked(ts); err != nil {
				return fmt.Errorf("txn: inline fold: %w", err)
			}
		}
	}
	return nil
}

// foldTailsLocked folds the tail stack into a single tail layer (the
// inline backstop when the stack outgrows maxTailLayers). Callers hold
// Manager.mu. The big PDT is untouched, so the mover's off-line rebuild
// of (stable, big) stays installable; published layers are not mutated:
// Propagate builds a new PDT, and the stack is replaced wholesale.
func foldTailsLocked(ts *tableState) error {
	folded := ts.tail[0]
	for _, layer := range ts.tail[1:] {
		var err error
		if folded, err = pdt.Propagate(folded, layer); err != nil {
			return err
		}
	}
	var lsn uint64
	for _, l := range ts.tailLSN {
		lsn = max(lsn, l)
	}
	ts.tail, ts.tailLSN = []*pdt.PDT{folded}, []uint64{lsn}
	// In-flight transactions can no longer rebase through a suffix of
	// the stack they pinned.
	ts.base++
	ts.version++
	ts.commits = nil
	return nil
}

// MergeIntoBuilder streams a table's visible rows — stable image merged
// with the given PDT — into b. Checkpoints and the bulk loader share it
// so there is exactly one definition of the rebuild merge.
func MergeIntoBuilder(b *storage.Builder, stable *storage.Table, master *pdt.PDT) error {
	schema := stable.Schema()
	cols := make([]int, schema.Len())
	for i := range cols {
		cols[i] = i
	}
	merged := pdt.NewMergeScan(&scanSource{sc: storage.NewScanner(stable, cols, nil, nil, 0)}, master, 0)
	for {
		vecs, n, err := merged.Next()
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		for i := 0; i < n; i++ {
			if err := b.AppendRow(rowFromVecs(vecs, i)); err != nil {
				return err
			}
		}
	}
}

// scanSource adapts storage.Scanner to pdt.RowSource.
type scanSource struct{ sc *storage.Scanner }

// Next implements pdt.RowSource.
func (s *scanSource) Next() ([]*vector.Vector, int, error) {
	vecs, _, n, err := s.sc.Next()
	return vecs, n, err
}

// rowFromVecs boxes row i of a set of aligned vectors.
func rowFromVecs(vecs []*vector.Vector, i int) vtypes.Row {
	row := make(vtypes.Row, len(vecs))
	for c, v := range vecs {
		row[c] = v.Get(i)
	}
	return row
}

// Abort discards the transaction's writes.
func (t *Txn) Abort() {
	t.done = true
	t.writes = nil
	t.snaps = nil
}

// Pinned is an immutable pin of one table's committed state: the stable
// image plus the PDT layer stack over it (big below, tails above,
// bottom first). Epoch-snapshot cursors and the tuple mover both work
// from pins — the pinned objects are never mutated by later commits, so
// no lock is needed while reading or folding them off-line.
type Pinned struct {
	Stable  *storage.Table
	Big     *pdt.PDT
	Tail    []*pdt.PDT
	Version uint64

	base    uint64
	bigLSN  uint64
	tailLSN []uint64

	// mergeOnce guards merged/mergeErr: the layer stack folded into
	// one PDT the first time the pin is resolved (see Merged).
	mergeOnce sync.Once
	merged    *pdt.PDT
	mergeErr  error
}

// Layers returns the pin's non-empty PDT layers bottom-first — the
// stack a merge scan applies over the stable image.
func (p *Pinned) Layers() []*pdt.PDT {
	out := make([]*pdt.PDT, 0, 1+len(p.Tail))
	if !p.Big.Empty() {
		out = append(out, p.Big)
	}
	out = append(out, p.Tail...)
	return out
}

// Rows returns the visible row count of the pin's top image.
func (p *Pinned) Rows() int64 {
	if n := len(p.Tail); n > 0 {
		return p.Tail[n-1].VisibleRows()
	}
	return p.Big.VisibleRows()
}

// Merged returns the pin's whole layer stack folded into one PDT over
// the stable image — the big PDT itself when there are no tails. It is
// computed on the first call and shared by every later caller: all
// cursors of one epoch snapshot, the DML statements pinning the same
// version, and the mover's off-line fold step. The inputs are
// immutable and the result is never mutated; safe for concurrent use.
func (p *Pinned) Merged() (*pdt.PDT, error) {
	p.mergeOnce.Do(func() {
		p.merged = p.Big
		for _, layer := range p.Tail {
			if p.merged, p.mergeErr = pdt.Propagate(p.merged, layer); p.mergeErr != nil {
				p.merged = nil
				return
			}
		}
	})
	return p.merged, p.mergeErr
}

// Resolve returns the stable image and at most one PDT layer, the
// merged deltas, for a scan to apply: one positional merge per scan,
// however deep the committed stack is.
func (p *Pinned) Resolve() (*storage.Table, []*pdt.PDT, error) {
	m, err := p.Merged()
	if err != nil {
		return nil, nil, err
	}
	if m.Empty() {
		return p.Stable, nil, nil
	}
	return p.Stable, []*pdt.PDT{m}, nil
}

// Watermark returns the highest WAL LSN whose effects are contained in
// the pin (stable image, big, and tails). A stable image rebuilt from
// the full pin records this as its applied LSN.
func (p *Pinned) Watermark() uint64 {
	w := p.bigLSN
	for _, lsn := range p.tailLSN {
		if lsn > w {
			w = lsn
		}
	}
	return w
}

// pinLocked returns the pin of the table's current version. Every
// publish bumps the version, so a cached pin of an older one is stale
// and replaced. Callers hold Manager.mu.
func pinLocked(ts *tableState) *Pinned {
	if ts.pin == nil || ts.pin.Version != ts.version {
		ts.pin = &Pinned{
			Stable:  ts.stable,
			Big:     ts.big,
			Tail:    ts.tail,
			Version: ts.version,
			base:    ts.base,
			bigLSN:  ts.bigLSN,
			tailLSN: ts.tailLSN,
		}
	}
	return ts.pin
}

// Pin captures the table's current committed state.
func (m *Manager) Pin(table string) (*Pinned, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[table]
	if ts == nil {
		return nil, fmt.Errorf("txn: unknown table %q", table)
	}
	return pinLocked(ts), nil
}

// PinAll captures every table's committed state at one instant — the
// cross-table consistency point an epoch snapshot is built from.
func (m *Manager) PinAll() map[string]*Pinned {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*Pinned, len(m.tables))
	for name, ts := range m.tables {
		out[name] = pinLocked(ts)
	}
	return out
}

// InstallFold publishes folded — the off-line Propagate of pin's big
// and tail layers (pin.Merged()) — as the table's new big PDT, keeping
// any tail layers committed after the pin. It is fenced on exactly the
// layers it folded: it fails (returns false, no change) unless the
// table still has the pin's stable image and big PDT and the pin's
// tails are still the bottom of the tail stack; the mover just retries
// on its next tick. Bumps the base generation.
func (m *Manager) InstallFold(table string, pin *Pinned, folded *pdt.PDT) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[table]
	if ts == nil || ts.stable != pin.Stable || ts.big != pin.Big || len(ts.tail) < len(pin.Tail) {
		return false
	}
	for i, layer := range pin.Tail {
		if ts.tail[i] != layer {
			return false
		}
	}
	ts.big = folded
	ts.bigLSN = pin.Watermark()
	ts.tail = append([]*pdt.PDT(nil), ts.tail[len(pin.Tail):]...)
	ts.tailLSN = append([]uint64(nil), ts.tailLSN[len(pin.Tail):]...)
	ts.base++
	ts.version++
	ts.commits = nil
	return true
}

// InstallStable swaps in a stable image rebuilt off-line from
// (pin.Stable, pin.Big) — the mover's merge of the big PDT into a fresh
// columnar file — and resets the big PDT to empty. Tail layers stay:
// the new image materializes exactly the big PDT's output image, so
// their coordinates are unchanged. The caller must have set the new
// image's applied-LSN watermark (pin.AppliedLSN) before persisting it;
// InstallStable re-stamps it defensively. It is fenced on the layers it
// rebuilt from: it fails (returns false, no change) unless the table
// still has the pin's stable image and big PDT. Tail reorganizations
// (commits, inline tail folds) leave it installable.
func (m *Manager) InstallStable(table string, pin *Pinned, newStable *storage.Table) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[table]
	if ts == nil || ts.stable != pin.Stable || ts.big != pin.Big {
		return false
	}
	newStable.Meta.AppliedLSN = pin.bigLSN
	ts.stable = newStable
	ts.big = pdt.New(newStable.Schema(), newStable.Rows())
	ts.bigLSN = pin.bigLSN
	ts.base++
	ts.version++
	ts.commits = nil
	return true
}

// AppliedLSN returns the watermark a stable image rebuilt from
// (Stable, Big) must record: the highest LSN folded into the big PDT.
func (p *Pinned) AppliedLSN() uint64 { return p.bigLSN }

// DeltaStats reports a table's in-memory delta footprint — what the
// tuple mover inspects to decide whether to fold or rebuild.
type DeltaStats struct {
	// BigEntries is the entry count of the big PDT.
	BigEntries int
	// TailLayers and TailEntries describe the committed tail stack.
	TailLayers  int
	TailEntries int
}

// DeltaStats returns the table's current delta footprint.
func (m *Manager) DeltaStats(table string) (DeltaStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[table]
	if ts == nil {
		return DeltaStats{}, fmt.Errorf("txn: unknown table %q", table)
	}
	st := DeltaStats{BigEntries: ts.big.Len(), TailLayers: len(ts.tail)}
	for _, layer := range ts.tail {
		st.TailEntries += layer.Len()
	}
	return st, nil
}

// MasterPDT returns the table's combined delta state — big and tails
// folded into one PDT — plus the stable image. O(total deltas); the
// bulk-load and checkpoint rebuild paths use it, scans use Pin instead.
// When the table has no tail layers the big PDT is returned directly;
// callers must treat it as immutable.
func (m *Manager) MasterPDT(table string) (*pdt.PDT, *storage.Table, error) {
	pin, err := m.Pin(table)
	if err != nil {
		return nil, nil, err
	}
	combined, err := pin.Merged()
	if err != nil {
		return nil, nil, err
	}
	return combined, pin.Stable, nil
}

// Checkpoint rewrites the table's stable image with every delta layer
// applied, stamps the applied-LSN watermark, and installs the fresh
// image with empty deltas. Callers must ensure no transaction commits
// to the table across a checkpoint (vectorwise.DB quiesces by holding
// its write lock for the duration); a concurrent reorganization or
// commit makes Checkpoint fail rather than lose layers. The WAL is NOT
// truncated here — records absorbed by the new image are made inert by
// the watermark, and the DB layer truncates once every table's deltas
// are persisted (TruncateWALIfClean).
func (m *Manager) Checkpoint(table string) error {
	pin, err := m.Pin(table)
	if err != nil {
		return err
	}
	combined, err := pin.Merged()
	if err != nil {
		return err
	}
	if combined.Empty() {
		return nil
	}
	schema := pin.Stable.Schema()
	nb := storage.NewBuilder(pin.Stable.Meta.Name, schema, 0)
	if err := MergeIntoBuilder(nb, pin.Stable, combined); err != nil {
		return err
	}
	newStable, err := nb.Finish()
	if err != nil {
		return err
	}
	newStable.Meta.AppliedLSN = pin.Watermark()

	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[table]
	if ts == nil || ts.base != pin.base || ts.version != pin.Version {
		return fmt.Errorf("txn: table %q changed during checkpoint (caller must quiesce)", table)
	}
	ts.stable = newStable
	ts.big = pdt.New(schema, newStable.Rows())
	ts.bigLSN = newStable.Meta.AppliedLSN
	ts.tail, ts.tailLSN = nil, nil
	ts.base++
	ts.version++
	ts.commits = nil
	return nil
}

// TruncateWALIfClean resets the WAL when every table's deltas are empty
// — i.e. all committed state is materialized in stable images (which
// the caller has persisted). LSNs stay monotonic across the reset (see
// wal.Log.Reset), so applied-LSN watermarks remain comparable. No-op
// when any table still carries deltas or there is no WAL.
func (m *Manager) TruncateWALIfClean() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	for _, ts := range m.tables {
		if !ts.big.Empty() || len(ts.tail) > 0 {
			return nil
		}
	}
	return m.log.Reset()
}
