package pdt

import (
	"vectorwise/internal/vector"
	"vectorwise/internal/vtypes"
)

// RowSource is a pull-based stream of row batches as aligned column
// vectors (dense, no selection vector). n == 0 signals end of stream.
// The storage scanner and the merge scan both present this shape, so
// PDT layers chain naturally: stable → big PDT → small PDT.
type RowSource interface {
	Next() (cols []*vector.Vector, n int, err error)
}

// PositionedSource is a RowSource that also reports where its batches
// sit in the global position space of its consumer: BasePos is the
// position of the first row of the batch most recently returned by
// Next, and EndPos is the exclusive upper bound of the whole stream's
// range (the table end, or the partition end for GroupLo/GroupHi
// restricted scans). A positioned source may leave gaps — row groups
// skipped by min/max pruning — and may start after 0 or end before the
// table end — partition scans. MergeScan aligns its delta cursor to
// the reported positions instead of assuming a dense full-table
// stream: entries outside [start, EndPos) are stepped over (they
// belong to other partitions), and pruned gaps are guaranteed
// entry-free by the pruning contract (see PDT.HasEntriesIn). A
// positioned source never returns a batch spanning a gap.
type PositionedSource interface {
	RowSource
	BasePos() int64
	EndPos() int64
}

// MergeScan applies a PDT to a stable RowSource positionally: deleted
// stable rows are dropped, modified rows patched, inserted rows injected
// at their positions. Runs of unmodified rows move with bulk copies —
// the reason positional deltas merge faster than value-based ones.
type MergeScan struct {
	src    RowSource
	posSrc PositionedSource // non-nil when src reports batch positions
	p      *PDT
	schema *vtypes.Schema
	vecCap int

	// stable input cursor
	cols []*vector.Vector
	n    int
	off  int
	sid  int64
	eof  bool
	// jumped records that fill observed a position discontinuity (a
	// pruned row-group range). Rows produced before and after a jump
	// must land in different output batches so this MergeScan's own
	// BasePos stays truthful for the layer above.
	jumped bool

	// entry cursor
	ents []Entry
	ei   int
	// delta is the net ins-del count of consumed entries — applied or
	// stepped over; sid+delta is the RID of the next output row, which
	// makes the merge itself a PositionedSource for the layer above.
	delta   int64
	basePos int64
	// entStop bounds entry emission after eof: entries at SID >=
	// entStop belong to the partition after this one. Full-range
	// merges keep it past stableRows so appends emit.
	entStop int64
	// srcEnd is the source's reported end position (stableRows for
	// non-positioned sources), set once eof is seen.
	srcEnd int64

	out *vector.Batch
}

// NewMergeScan wraps src with the deltas of p. vecCap <= 0 selects
// vector.DefaultSize for output batches.
func NewMergeScan(src RowSource, p *PDT, vecCap int) *MergeScan {
	if vecCap <= 0 {
		vecCap = vector.DefaultSize
	}
	ps, _ := src.(PositionedSource)
	return &MergeScan{
		src:     src,
		posSrc:  ps,
		p:       p,
		schema:  p.Schema(),
		vecCap:  vecCap,
		ents:    p.Entries(),
		entStop: 1<<62 - 1,
		srcEnd:  p.stableRows,
		out:     vector.NewBatch(p.Schema(), vecCap),
	}
}

// BasePos implements PositionedSource: the RID (in this merge's output
// image) of the first row of the batch most recently returned by Next.
func (m *MergeScan) BasePos() int64 { return m.basePos }

// EndPos implements PositionedSource: the exclusive RID bound of this
// merge's output range. A full-range merge ends at VisibleRows (its
// appends included); a partition-restricted merge ends where the next
// partition's first image row begins.
func (m *MergeScan) EndPos() int64 {
	if m.srcEnd == m.p.stableRows {
		return m.p.VisibleRows()
	}
	return m.p.StartRID(m.srcEnd)
}

// skipEntriesBelow steps the entry cursor over entries at SID < sid
// without applying them: they annotate rows outside this stream (other
// partitions), or lie in a pruned gap (entry-free by contract, no-op).
// Their net insert-delete effect still lands in delta so sid+delta
// stays the true global RID.
func (m *MergeScan) skipEntriesBelow(sid int64) {
	for m.ei < len(m.ents) && m.ents[m.ei].SID < sid {
		switch m.ents[m.ei].Type {
		case Ins:
			m.delta++
		case Del:
			m.delta--
		}
		m.ei++
	}
}

// fill ensures a stable batch is available (or eof), aligning the
// stable cursor to the source's reported position when it can skip
// pruned row groups.
func (m *MergeScan) fill() error {
	for !m.eof && m.off >= m.n {
		cols, n, err := m.src.Next()
		if err != nil {
			return err
		}
		if n == 0 {
			m.eof = true
			if m.posSrc != nil {
				// Advance to the stream's declared end: trailing
				// pruned groups are stepped over (entry-free by
				// contract), and entries past the end — the next
				// partition's — stop emission (except appends at
				// stableRows, which belong to the partition that
				// reaches the table end).
				m.srcEnd = m.posSrc.EndPos()
				m.entStop = m.srcEnd
				if m.srcEnd == m.p.stableRows {
					m.entStop = m.p.stableRows + 1
				}
				if m.sid != m.srcEnd {
					m.skipEntriesBelow(m.srcEnd)
					m.sid = m.srcEnd
					m.jumped = true
				}
			}
			return nil
		}
		m.cols, m.n, m.off = cols, n, 0
		if m.posSrc != nil {
			if pos := m.posSrc.BasePos(); pos != m.sid {
				// A gap [m.sid, pos): a pruned range (entry-free) or
				// the run-up to a partition start (entries there
				// belong to earlier partitions — step over them,
				// keeping delta truthful).
				m.skipEntriesBelow(pos)
				m.sid = pos
				m.jumped = true
			}
		}
	}
	return nil
}

// Next implements RowSource, producing the merged image.
func (m *MergeScan) Next() (cols []*vector.Vector, n int, err error) {
	if err := m.fill(); err != nil {
		return nil, 0, err
	}
	// A jump before the first row of a batch is not a cut — the batch
	// simply starts after the gap.
	m.jumped = false
	m.basePos = m.sid + m.delta
	produced := 0
	// Fresh output vectors each call: downstream operators may retain
	// views of the returned columns.
	m.out = vector.NewBatch(m.schema, m.vecCap)
	for produced < m.vecCap {
		if m.jumped {
			// A pruned gap opened mid-batch: rows after it have
			// discontiguous RIDs, so they start the next batch.
			if produced > 0 {
				break
			}
			m.jumped = false
			m.basePos = m.sid + m.delta
		}
		var entSID int64 = 1<<62 - 1
		if m.ei < len(m.ents) {
			entSID = m.ents[m.ei].SID
		}
		if m.eof && (m.ei >= len(m.ents) || entSID >= m.entStop) {
			break
		}
		if !m.eof && m.sid < entSID {
			// Bulk-copy the run of untouched stable rows.
			run := entSID - m.sid
			if avail := int64(m.n - m.off); run > avail {
				run = avail
			}
			if rem := int64(m.vecCap - produced); run > rem {
				run = rem
			}
			if run > 0 {
				for c := range m.out.Vecs {
					m.out.Vecs[c].CopyFrom(m.cols[c], m.off, produced, int(run))
				}
				m.off += int(run)
				m.sid += run
				produced += int(run)
			}
			if m.off >= m.n {
				if err := m.fill(); err != nil {
					return nil, 0, err
				}
			}
			continue
		}
		if m.ei < len(m.ents) && entSID <= m.sid {
			e := &m.ents[m.ei]
			switch e.Type {
			case Ins:
				for c := range m.out.Vecs {
					m.out.Vecs[c].Set(produced, e.Row[c])
				}
				produced++
				m.delta++
				m.ei++
			case Del:
				// Skip the stable row at this SID.
				if err := m.skipStable(); err != nil {
					return nil, 0, err
				}
				m.delta--
				m.ei++
			case Mod:
				for c := range m.out.Vecs {
					m.out.Vecs[c].CopyFrom(m.cols[c], m.off, produced, 1)
				}
				for _, mc := range e.Mods {
					m.out.Vecs[mc.Col].Set(produced, mc.Val)
				}
				produced++
				m.ei++
				if err := m.skipStable(); err != nil {
					return nil, 0, err
				}
			}
			continue
		}
		// Entries exhausted but stable rows remain past eof handling.
		if m.eof {
			break
		}
	}
	if produced == 0 {
		return nil, 0, nil
	}
	m.out.SetDense(produced)
	return m.out.Vecs, produced, nil
}

// skipStable advances past one stable input row.
func (m *MergeScan) skipStable() error {
	m.off++
	m.sid++
	if m.off >= m.n {
		return m.fill()
	}
	return nil
}

// VecSource adapts a fixed set of in-memory columns to RowSource (test
// and baseline-engine helper).
type VecSource struct {
	cols []*vector.Vector
	rows int
	cap  int
	pos  int
}

// NewVecSource serves rows from whole-column vectors in batches of cap.
func NewVecSource(cols []*vector.Vector, rows, capacity int) *VecSource {
	if capacity <= 0 {
		capacity = vector.DefaultSize
	}
	return &VecSource{cols: cols, rows: rows, cap: capacity}
}

// Next implements RowSource.
func (s *VecSource) Next() ([]*vector.Vector, int, error) {
	if s.pos >= s.rows {
		return nil, 0, nil
	}
	n := s.rows - s.pos
	if n > s.cap {
		n = s.cap
	}
	out := make([]*vector.Vector, len(s.cols))
	for i, v := range s.cols {
		out[i] = viewRange(v, s.pos, s.pos+n)
	}
	s.pos += n
	return out, n, nil
}

// Reset rewinds the source.
func (s *VecSource) Reset() { s.pos = 0 }

func viewRange(v *vector.Vector, lo, hi int) *vector.Vector {
	out := &vector.Vector{Kind: v.Kind}
	switch v.Kind.StorageClass() {
	case vtypes.ClassI64:
		out.I64 = v.I64[lo:hi]
	case vtypes.ClassF64:
		out.F64 = v.F64[lo:hi]
	case vtypes.ClassStr:
		out.Str = v.Str[lo:hi]
	case vtypes.ClassBool:
		out.B = v.B[lo:hi]
	}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[lo:hi]
	}
	return out
}

// Materialize drains a RowSource into full rows (test helper).
func Materialize(src RowSource, schema *vtypes.Schema) ([]vtypes.Row, error) {
	var out []vtypes.Row
	for {
		cols, n, err := src.Next()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		for i := 0; i < n; i++ {
			row := make(vtypes.Row, len(cols))
			for c, v := range cols {
				row[c] = v.Get(i)
			}
			out = append(out, row)
		}
	}
}
