package core

import (
	"context"

	"vectorwise/internal/pdt"
	"vectorwise/internal/storage"
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// Scan reads a column projection of a stable table, merging in the
// table's PDT layers (committed master, then the transaction's private
// PDT) positionally. With empty PDTs the scan serves zero-copy views of
// decompressed chunks; with deltas it routes through the merge scan.
//
// A Scan may carry a filter predicate (the plan's pushed-down sargable
// conjuncts): it is evaluated on every batch right after decompression
// (and after delta merge), so downstream operators see pre-filtered
// selection vectors, and it is the predicate row-group pruning was
// derived from.
//
// A RowPosCol entry among the columns outputs each row's position in
// the image the scan reads (stable image merged with its PDT layers):
// the storage scanner's batch position, or the top merge's BasePos
// when deltas exist. Both stay exact across pruned row-group gaps and
// partition starts. DML statements address the rows they change by it.
type Scan struct {
	table *storage.Table
	// cols are the stored columns read, in output order; posIdx is the
	// output index of the row-position column, -1 when absent.
	cols    []int
	posIdx  int
	fetch   storage.ChunkFetcher
	prune   storage.PruneFn
	filter  Pred
	stats   *storage.ScanStats
	vecSize int
	// PDT layers, bottom-up; nil/empty layers are skipped.
	layers []*pdt.PDT
	// group range for parallel partition scans; hi == 0 means all.
	gLo, gHi int

	schema *vtypes.Schema
	sc     *storage.Scanner
	merged *pdt.MergeScan // top of the merge chain; nil without deltas
	batch  *vector.Batch
	ctx    context.Context
}

// RowPosCol, given as a column index to NewScan, selects the row
// position (BIGINT) instead of a stored column.
const RowPosCol = -1

// ScanOpts configures a Scan.
type ScanOpts struct {
	// Fetch interposes a buffer manager; nil reads chunks directly.
	Fetch storage.ChunkFetcher
	// Prune skips row groups by statistics. With non-empty PDT layers
	// it still applies, restricted to groups whose global position
	// range carries no delta entries in any layer — the positional
	// merge steps over the entry-free gap, so clean cold groups skip
	// while touched groups merge normally.
	Prune storage.PruneFn
	// Filter, when non-nil, is evaluated on every output batch inside
	// the scan (post-decompression, post-merge); surviving rows are
	// referenced through the batch's selection vector.
	Filter Pred
	// Stats, when non-nil, counts scanned/pruned row groups (shared
	// across the partition scans of one query).
	Stats *storage.ScanStats
	// VecSize overrides vector.DefaultSize.
	VecSize int
	// Layers are PDT layers, bottom (committed master) first.
	Layers []*pdt.PDT
	// GroupLo/GroupHi restrict the scan to row groups [lo, hi) for
	// parallel partition scans; both zero means the whole table.
	GroupLo, GroupHi int
}

// NewScan builds a scan of the given column indexes of t (RowPosCol
// for the row position).
func NewScan(t *storage.Table, cols []int, opts ScanOpts) *Scan {
	full := t.Schema()
	outCols := make([]vtypes.Column, len(cols))
	stored := make([]int, 0, len(cols))
	posIdx := -1
	for i, c := range cols {
		if c == RowPosCol {
			outCols[i] = vtypes.Column{Name: "rowpos", Kind: vtypes.KindI64}
			posIdx = i
			continue
		}
		outCols[i] = full.Cols[c]
		stored = append(stored, c)
	}
	s := &Scan{
		table:   t,
		cols:    stored,
		posIdx:  posIdx,
		fetch:   opts.Fetch,
		prune:   opts.Prune,
		filter:  opts.Filter,
		stats:   opts.Stats,
		vecSize: opts.VecSize,
		layers:  opts.Layers,
		gLo:     opts.GroupLo,
		gHi:     opts.GroupHi,
		schema:  &vtypes.Schema{Cols: outCols},
	}
	if s.vecSize <= 0 {
		s.vecSize = vector.DefaultSize
	}
	return s
}

// Schema implements Operator.
func (s *Scan) Schema() *vtypes.Schema { return s.schema }

// SetContext implements ContextSetter.
func (s *Scan) SetContext(ctx context.Context) { s.ctx = ctx }

// hasDeltas reports whether any PDT layer carries entries.
func (s *Scan) hasDeltas() bool {
	for _, p := range s.layers {
		if p != nil && !p.Empty() {
			return true
		}
	}
	return false
}

// Open implements Operator.
func (s *Scan) Open() error {
	prune := s.prune
	if prune != nil && s.hasDeltas() {
		// Pruning under a positional merge: a group may only be
		// skipped when its global position range is entry-free in
		// every PDT layer, so the merge steps over a clean gap and
		// touched groups keep dense positions. The range is re-expressed
		// through each layer's image (SID → RID) on the way up.
		starts := s.groupStarts()
		inner := prune
		prune = func(g int, grp *storage.GroupMeta) bool {
			lo, hi := starts[g], starts[g]+int64(grp.Rows)
			for _, layer := range s.layers {
				if layer == nil || layer.Empty() {
					continue
				}
				if layer.HasEntriesIn(lo, hi) {
					return false
				}
				lo, hi = layer.StartRID(lo), layer.StartRID(lo)+(hi-lo)
			}
			return inner(g, grp)
		}
	}
	s.sc = storage.NewScanner(s.table, s.cols, s.fetch, prune, s.vecSize)
	s.sc.SetStats(s.stats)
	if s.gHi > 0 {
		s.sc.SetGroupRange(s.gLo, s.gHi)
	}
	if s.hasDeltas() {
		var src pdt.RowSource = &scanSource{sc: s.sc}
		stored := s.table.Schema().Project(s.cols)
		for _, layer := range s.layers {
			if layer == nil || layer.Empty() {
				continue
			}
			s.merged = pdt.NewMergeScan(src, pdt.ProjectCols(layer, s.cols, stored), s.vecSize)
			src = s.merged
		}
	}
	return nil
}

// groupStarts returns the global start position of every row group.
func (s *Scan) groupStarts() []int64 {
	starts := make([]int64, s.table.Groups())
	var pos int64
	for g := range starts {
		starts[g] = pos
		pos += int64(s.table.GroupRows(g))
	}
	return starts
}

// Next implements Operator.
func (s *Scan) Next() (*vector.Batch, error) {
	for {
		if err := ctxErr(s.ctx); err != nil {
			return nil, err
		}
		b, err := s.nextRaw()
		if err != nil || b == nil {
			return nil, err
		}
		if s.filter != nil {
			if err := s.filter.Filter(b); err != nil {
				return nil, err
			}
			if b.N == 0 {
				continue
			}
		}
		return b, nil
	}
}

// nextRaw pulls the next unfiltered batch from storage (or the merge).
func (s *Scan) nextRaw() (*vector.Batch, error) {
	if s.merged != nil {
		vecs, n, err := s.merged.Next()
		if err != nil || n == 0 {
			return nil, err
		}
		b := &vector.Batch{Vecs: s.withRowPos(vecs, s.merged.BasePos(), n)}
		b.SetDense(n)
		return b, nil
	}
	vecs, pos, n, err := s.sc.Next()
	if err != nil || n == 0 {
		return nil, err
	}
	if s.batch == nil {
		s.batch = &vector.Batch{}
	}
	s.batch.Vecs = s.withRowPos(vecs, pos, n)
	s.batch.SetDense(n)
	return s.batch, nil
}

// withRowPos inserts the row-position column, positions pos..pos+n-1,
// at its output index. The batch rows are contiguous in the image: the
// storage scanner and the merge both cut batches at position gaps. The
// vector is fresh per batch, since downstream operators may retain it.
func (s *Scan) withRowPos(vecs []*vector.Vector, pos int64, n int) []*vector.Vector {
	if s.posIdx < 0 {
		return vecs
	}
	rp := vector.New(vtypes.KindI64, n)
	for i := range rp.I64 {
		rp.I64[i] = pos + int64(i)
	}
	out := make([]*vector.Vector, 0, len(vecs)+1)
	out = append(out, vecs[:s.posIdx]...)
	out = append(out, rp)
	return append(out, vecs[s.posIdx:]...)
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.sc, s.merged = nil, nil
	return nil
}

// scanSource adapts storage.Scanner to pdt.PositionedSource, reporting
// each batch's global start position so the merge can align deltas
// across pruned row-group gaps.
type scanSource struct {
	sc  *storage.Scanner
	pos int64
}

// Next implements pdt.RowSource.
func (a *scanSource) Next() ([]*vector.Vector, int, error) {
	vecs, pos, n, err := a.sc.Next()
	a.pos = pos
	return vecs, n, err
}

// BasePos implements pdt.PositionedSource.
func (a *scanSource) BasePos() int64 { return a.pos }

// EndPos implements pdt.PositionedSource.
func (a *scanSource) EndPos() int64 { return a.sc.EndPos() }

// Select filters its input with a compiled predicate; surviving rows are
// referenced through the batch's selection vector, never copied.
type Select struct {
	child Operator
	pred  Pred
	ctx   context.Context
}

// Pred re-exports expr.Pred to avoid an import cycle in operator users.
type Pred interface {
	Filter(b *vector.Batch) error
}

// NewSelect wraps child with a filter.
func NewSelect(child Operator, pred Pred) *Select {
	return &Select{child: child, pred: pred}
}

// Schema implements Operator.
func (s *Select) Schema() *vtypes.Schema { return s.child.Schema() }

// SetContext implements ContextSetter.
func (s *Select) SetContext(ctx context.Context) { s.ctx = ctx }

// Open implements Operator.
func (s *Select) Open() error { return s.child.Open() }

// Next implements Operator.
func (s *Select) Next() (*vector.Batch, error) {
	for {
		if err := ctxErr(s.ctx); err != nil {
			return nil, err
		}
		b, err := s.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if err := s.pred.Filter(b); err != nil {
			return nil, err
		}
		if b.N > 0 {
			return b, nil
		}
	}
}

// Close implements Operator.
func (s *Select) Close() error { return s.child.Close() }

// Expr re-exports the expression contract used by Project and the
// aggregate/join operators.
type Expr interface {
	Kind() vtypes.Kind
	Eval(b *vector.Batch) (*vector.Vector, error)
}

// Project computes one expression per output column. Column references
// pass through zero-copy; computed columns share the child's selection
// vector (results are written only at live positions).
type Project struct {
	child  Operator
	exprs  []Expr
	schema *vtypes.Schema
	out    vector.Batch
	ctx    context.Context
}

// NewProject builds a projection; names label the output columns.
func NewProject(child Operator, exprs []Expr, names []string) *Project {
	cols := make([]vtypes.Column, len(exprs))
	for i, e := range exprs {
		cols[i] = vtypes.Column{Name: names[i], Kind: e.Kind()}
	}
	return &Project{child: child, exprs: exprs, schema: &vtypes.Schema{Cols: cols}}
}

// Schema implements Operator.
func (p *Project) Schema() *vtypes.Schema { return p.schema }

// SetContext implements ContextSetter.
func (p *Project) SetContext(ctx context.Context) { p.ctx = ctx }

// Open implements Operator.
func (p *Project) Open() error { return p.child.Open() }

// Next implements Operator.
func (p *Project) Next() (*vector.Batch, error) {
	if err := ctxErr(p.ctx); err != nil {
		return nil, err
	}
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if p.out.Vecs == nil {
		p.out.Vecs = make([]*vector.Vector, len(p.exprs))
	}
	for i, e := range p.exprs {
		v, err := e.Eval(b)
		if err != nil {
			return nil, err
		}
		p.out.Vecs[i] = v
	}
	p.out.Sel = b.Sel
	p.out.N = b.N
	return &p.out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }

// Limit passes through at most n rows.
type Limit struct {
	child Operator
	n     int64
	seen  int64
	ctx   context.Context
}

// NewLimit caps the stream at n rows.
func NewLimit(child Operator, n int64) *Limit { return &Limit{child: child, n: n} }

// Schema implements Operator.
func (l *Limit) Schema() *vtypes.Schema { return l.child.Schema() }

// SetContext implements ContextSetter.
func (l *Limit) SetContext(ctx context.Context) { l.ctx = ctx }

// Open implements Operator.
func (l *Limit) Open() error {
	l.seen = 0
	return l.child.Open()
}

// Next implements Operator.
func (l *Limit) Next() (*vector.Batch, error) {
	if err := ctxErr(l.ctx); err != nil {
		return nil, err
	}
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if l.seen+int64(b.N) > l.n {
		keep := int(l.n - l.seen)
		if b.Sel != nil {
			// The child owns b.Sel (often a reused selBuf); truncate a
			// private copy so operators that reuse the batch across
			// Next calls are not corrupted by the shortened view.
			sel := make([]int32, keep)
			copy(sel, b.Sel[:keep])
			b.Sel = sel
		}
		b.N = keep
	}
	l.seen += int64(b.N)
	return b, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.child.Close() }
